(* Interpreters: counters, traces, bounds enforcement, reductions. *)

open Ir
module Vec = Support.Vec
module Code = Sir.Code

let v = Vec.of_list

(* A tiny hand-built scalar program: B[i] = A[i-1] * 2 over i=1..4. *)
let hand_program () =
  {
    Code.name = "hand";
    allocs =
      [
        { Code.name = "A"; dims = [| (0, 5) |] };
        { Code.name = "B"; dims = [| (0, 5) |] };
      ];
    scalars = [ ("k", 2.0) ];
    body =
      [
        Code.For
          {
            var = "__i1";
            lo = 0;
            hi = 5;
            step = 1;
            body =
              [
                Code.Store
                  ( "A",
                    [| { Code.base = "__i1"; off = 0 } |],
                    Code.Scalar "__i1" );
              ];
          };
        Code.For
          {
            var = "__i1";
            lo = 1;
            hi = 4;
            step = 1;
            body =
              [
                Code.Store
                  ( "B",
                    [| { Code.base = "__i1"; off = 0 } |],
                    Code.Binop
                      ( Expr.Mul,
                        Code.Load ("A", [| { Code.base = "__i1"; off = -1 } |]),
                        Code.Scalar "k" ) );
              ];
          };
      ];
    live_out = [ "B" ];
  }

let test_counters_exact () =
  let r = Exec.Interp.run (hand_program ()) in
  let c = Exec.Interp.counters r in
  Alcotest.(check int) "stores" (6 + 4) c.Exec.Interp.stores;
  Alcotest.(check int) "loads" 4 c.Exec.Interp.loads;
  Alcotest.(check int) "flops" 4 c.Exec.Interp.flops

let test_values () =
  let r = Exec.Interp.run (hand_program ()) in
  Alcotest.(check (float 0.0)) "B[3] = A[2]*2 = 4" 4.0
    (Exec.Interp.read_point r "B" [| 3 |]);
  Alcotest.(check (float 0.0)) "B[0] untouched" 0.0
    (Exec.Interp.read_point r "B" [| 0 |]);
  Alcotest.(check (float 0.0)) "scalar k" 2.0 (Exec.Interp.get_scalar r "k")

let test_trace () =
  let events = ref [] in
  let _ =
    Exec.Interp.run
      ~trace:(fun ~addr ~write -> events := (addr, write) :: !events)
      (hand_program ())
  in
  let events = List.rev !events in
  Alcotest.(check int) "one event per access" 14 (List.length events);
  Alcotest.(check bool)
    "8-byte aligned" true
    (List.for_all (fun (a, _) -> a mod 8 = 0) events);
  (* loads of A and stores of B interleave in the second loop *)
  let writes = List.filter snd events in
  Alcotest.(check int) "writes" 10 (List.length writes);
  (* distinct arrays never share addresses *)
  let addr_of (a, _) = a in
  let a_addrs = List.filteri (fun i _ -> i < 6) events |> List.map addr_of in
  let b_addrs =
    List.filteri (fun i _ -> i >= 6) events
    |> List.filter snd |> List.map addr_of
  in
  Alcotest.(check bool)
    "disjoint address ranges" true
    (List.for_all (fun a -> not (List.mem a b_addrs)) a_addrs)

let test_out_of_bounds () =
  let bad =
    {
      (hand_program ()) with
      Code.body =
        [
          Code.Store ("A", [| { Code.base = ""; off = 9 } |], Code.Const 1.0);
        ];
    }
  in
  Alcotest.(check bool)
    "OOB raises" true
    (try
       ignore (Exec.Interp.run bad);
       false
     with Exec.Interp.Runtime_error _ -> true)

let test_undefined_scalar () =
  let bad =
    { (hand_program ()) with Code.body = [ Code.Sassign ("x", Code.Scalar "nope") ] }
  in
  Alcotest.(check bool)
    "undefined scalar raises" true
    (try
       ignore (Exec.Interp.run bad);
       false
     with Exec.Interp.Runtime_error _ -> true)

let test_descending_loop () =
  (* prefix dependences honored by a descending loop: A[i] = A[i-1]+1
     executed descending leaves old values (no cascade) *)
  let p =
    {
      Code.name = "desc";
      allocs = [ { Code.name = "A"; dims = [| (0, 4) |] } ];
      scalars = [];
      body =
        [
          Code.For
            {
              var = "__i1";
              lo = 1;
              hi = 4;
              step = -1;
              body =
                [
                  Code.Store
                    ( "A",
                      [| { Code.base = "__i1"; off = 0 } |],
                      Code.Binop
                        ( Expr.Add,
                          Code.Load ("A", [| { Code.base = "__i1"; off = -1 } |]),
                          Code.Const 1.0 ) );
                ];
            };
        ];
      live_out = [ "A" ];
    }
  in
  let r = Exec.Interp.run p in
  (* descending: each A[i] reads the ORIGINAL A[i-1] = 0 -> all 1 *)
  Alcotest.(check (array (float 0.0)))
    "no cascade"
    [| 0.0; 1.0; 1.0; 1.0; 1.0 |]
    (Exec.Interp.get_array r "A")

let test_checksum_sensitivity () =
  let p = hand_program () in
  let r1 = Exec.Interp.run p in
  let p2 =
    {
      p with
      Code.scalars = [ ("k", 3.0) ];
    }
  in
  let r2 = Exec.Interp.run p2 in
  Alcotest.(check bool)
    "different results, different checksums" true
    (Exec.Interp.checksum r1 <> Exec.Interp.checksum r2)

let test_footprint () =
  Alcotest.(check int) "bytes" (8 * 12) (Exec.Interp.footprint_bytes (hand_program ()))

(* ------------------------------------------------------------------ *)
(* Trace golden                                                        *)
(* ------------------------------------------------------------------ *)

(* Every suite program at baseline and c2+f3, traced into the T3E's
   cache hierarchy: a digest of the whole (addr, write) stream in
   execution order, the four counters, the L1 and L2 stats and the
   checksum.  Recorded from the name-lookup interpreter the closure
   lowering replaced, so a reordered or dropped reference fails here. *)
let trace_golden =
  [
    ("ep", "baseline", "ee44c699dbc48000", (245760, 90112, 221184, 90112), (335872, 264192, 71680), (71680, 47628, 24052), "308149a4cb0e1adc");
    ("ep", "c2+f3", "0000000000000000", (0, 0, 221184, 0), (0, 0, 0), (0, 0, 0), "308149a4cb0e1adc");
    ("frac", "baseline", "2838b32145152000", (1032192, 552960, 737280, 552960), (1585152, 1225728, 359424), (359424, 210408, 149016), "47f1c2dbefb05000");
    ("frac", "c2+f3", "a771bbecf78e2000", (442368, 159744, 737280, 159744), (602112, 562176, 39936), (39936, 38400, 1536), "47f1c2dbefb05000");
    ("tomcatv", "baseline", "9297806629b7bda8", (511488, 153044, 515556, 153044), (664532, 539006, 125526), (125526, 86760, 38766), "eda55e8c1339efca");
    ("tomcatv", "c2+f3", "74dcc6090268c8a8", (294912, 74708, 515556, 74708), (369620, 342489, 27131), (27131, 20789, 6342), "eda55e8c1339efca");
    ("sp", "baseline", "c396f5030513e578", (594584, 116184, 782356, 116184), (710768, 579569, 131199), (131199, 98750, 32449), "1d5105a5547c40b6");
    ("sp", "c2+f3", "fd4736e2c417bb58", (556184, 87384, 782356, 87384), (643568, 557147, 86421), (86421, 65365, 21056), "1d5105a5547c40b6");
    ("simple", "baseline", "adec5fc961692620", (541128, 186132, 665884, 186132), (727260, 579797, 147463), (147463, 107663, 39800), "f297d0e544e2264b");
    ("simple", "c2+f3", "79a1b04834419280", (469128, 133332, 665884, 133332), (602460, 498839, 103621), (103621, 74803, 28818), "f297d0e544e2264b");
    ("fibro", "baseline", "0d01dbbd0b5dd348", (721600, 236676, 959256, 236676), (958276, 754221, 204055), (204055, 138016, 66039), "251020c2951442af");
    ("fibro", "c2+f3", "928c6e7d37c82a08", (582400, 131076, 959256, 131076), (713476, 594765, 118711), (118711, 82418, 36293), "251020c2951442af");
    ("adi3d", "baseline", "1e8fa0e2269c9a20", (101952, 40048, 131016, 40048), (142000, 113976, 28024), (28024, 24625, 3399), "a21231b22f381aeb");
    ("adi3d", "c2+f3", "21acae64356944a0", (84672, 22768, 131016, 22768), (107440, 94304, 13136), (13136, 12186, 950), "a21231b22f381aeb");
  ]

let test_trace_golden () =
  let module Cache = Cachesim.Cache in
  let stats (s : Cache.stats) = (s.accesses, s.hits, s.misses) in
  let observe (b : Suite.bench) level =
    let c =
      Compilers.Driver.compile_exn_opts (Compilers.Driver.opts level)
        (Suite.program b)
    in
    let m = Machine.t3e in
    let hier = Cache.Hierarchy.create ~l1:m.Machine.l1 ?l2:m.Machine.l2 () in
    let h = ref Support.Hash64.empty in
    let trace ~addr ~write =
      h := Support.Hash64.mix_int !h ((addr lsl 1) lor Bool.to_int write);
      Cache.Hierarchy.access hier ~addr ~write
    in
    let r = Exec.Interp.run ~trace c.Compilers.Driver.code in
    let k = Exec.Interp.counters r in
    ( b.Suite.name,
      Compilers.Driver.level_name level,
      Support.Hash64.to_hex !h,
      (k.loads, k.stores, k.flops, k.iters),
      stats (Cache.Hierarchy.l1_stats hier),
      (match Cache.Hierarchy.l2_stats hier with
      | Some s -> stats s
      | None -> (0, 0, 0)),
      Exec.Interp.checksum r )
  in
  let got =
    List.concat_map
      (fun b -> List.map (observe b) Compilers.Driver.[ Baseline; C2F3 ])
      (Suite.all @ Suite.extras)
  in
  let triple = Alcotest.(triple int int int) in
  List.iter2
    (fun (n, l, digest, (ld, st, fl, it), l1, l2, sum)
         (n', l', digest', (ld', st', fl', it'), l1', l2', sum') ->
      let name what = Printf.sprintf "%s @ %s %s" n l what in
      Alcotest.(check (pair string string)) "cell" (n, l) (n', l');
      Alcotest.(check string) (name "trace digest") digest digest';
      Alcotest.(check (list int))
        (name "loads/stores/flops/iters")
        [ ld; st; fl; it ] [ ld'; st'; fl'; it' ];
      Alcotest.check triple (name "L1") l1 l1';
      Alcotest.check triple (name "L2") l2 l2';
      Alcotest.(check string) (name "checksum") sum sum')
    trace_golden got

(* ------------------------------------------------------------------ *)
(* Error semantics                                                     *)
(* ------------------------------------------------------------------ *)

let abs off = { Code.base = ""; off }
let rel ?(off = 0) base = { Code.base; off }

let err_program body =
  {
    Code.name = "err";
    allocs =
      [
        { Code.name = "A"; dims = [| (0, 5) |] };
        { Code.name = "C"; dims = [| (0, 2); (1, 3) |] };
      ];
    scalars = [ ("k", 2.0) ];
    body;
    live_out = [ "A" ];
  }

let loop ?(lo = 0) ?(hi = 5) var body =
  Code.For { var; lo; hi; step = 1; body }

(* name, body, exact message, trace events emitted before the raise;
   recorded from the name-lookup interpreter *)
let error_cases =
  let load x subs = Code.Sassign ("x", Code.Load (x, subs)) in
  [
    ("oob load", [ load "A" [| abs 9 |] ], "A: subscript 9 out of bounds [0..5] in dim 1", 0);
    ( "oob store",
      [ Code.Store ("A", [| abs (-1) |], Code.Const 1.0) ],
      "A: subscript -1 out of bounds [0..5] in dim 1",
      0 );
    ( "oob in loop",
      [ loop ~hi:6 "__i1" [ Code.Store ("A", [| rel "__i1" |], Code.Const 1.0) ] ],
      "A: subscript 6 out of bounds [0..5] in dim 1",
      6 );
    ("oob dim 2", [ load "C" [| abs 1; abs 0 |] ], "C: subscript 0 out of bounds [1..3] in dim 2", 0);
    ("oob first dim first", [ load "C" [| abs 3; abs 0 |] ], "C: subscript 3 out of bounds [0..2] in dim 1", 0);
    ("rank mismatch load", [ load "A" [| abs 0; abs 0 |] ], "A: rank 2 subscript on rank 1 array", 0);
    ( "rank mismatch store",
      [ Code.Store ("C", [| abs 0 |], Code.Const 1.0) ],
      "C: rank 1 subscript on rank 2 array",
      0 );
    ("undefined scalar in expr", [ Code.Sassign ("x", Code.Scalar "nope") ], "undefined scalar nope", 0);
    ("undefined scalar in subscript", [ load "A" [| rel "nope" |] ], "undefined scalar nope", 0);
    ("undefined subscript before rank", [ load "A" [| abs 0; rel "nope" |] ], "undefined scalar nope", 0);
    ("contracted array in load", [ load "T" [| rel "nope" |] ], "undefined (or contracted) array T", 0);
    ( "store evaluates rhs first",
      [ Code.Store ("T", [| abs 0 |], Code.Scalar "nope") ],
      "undefined scalar nope",
      0 );
    ( "contracted array in store",
      [ Code.Store ("T", [| rel "nope" |], Code.Load ("A", [| abs 0 |])) ],
      "undefined (or contracted) array T",
      1 );
    ( "self-referencing assignment",
      [ Code.Sassign ("x", Code.Binop (Expr.Add, Code.Scalar "x", Code.Const 1.0)) ],
      "undefined scalar x",
      0 );
    ( "use before definition in a loop",
      [ loop "__i1" [ Code.Sassign ("y", Code.Scalar "x"); Code.Sassign ("x", Code.Const 1.0) ] ],
      "undefined scalar x",
      0 );
  ]

let test_error_messages () =
  List.iter
    (fun (name, body, msg, events) ->
      let n = ref 0 in
      match
        Exec.Interp.run ~trace:(fun ~addr:_ ~write:_ -> incr n) (err_program body)
      with
      | _ -> Alcotest.failf "%s: no error" name
      | exception Exec.Interp.Runtime_error m ->
          Alcotest.(check string) name msg m;
          Alcotest.(check int) (name ^ ": events before the error") events !n)
    error_cases

let test_zero_trip_defers () =
  let bad =
    [
      Code.Sassign ("x", Code.Load ("T", [| rel "nope" |]));
      Code.Sassign ("y", Code.Load ("A", [| abs 99 |]));
      Code.Store ("C", [| abs 0 |], Code.Scalar "nope");
    ]
  in
  let r = Exec.Interp.run (err_program [ loop ~lo:3 ~hi:2 "__i9" bad ]) in
  Alcotest.(check int) "nothing ran" 0 (Exec.Interp.counters r).Exec.Interp.flops;
  Alcotest.check_raises "loop variable of a zero-trip loop stays undefined"
    (Exec.Interp.Runtime_error "undefined scalar __i9") (fun () ->
      ignore (Exec.Interp.get_scalar r "__i9"));
  Alcotest.check_raises "nor is anything its body assigns"
    (Exec.Interp.Runtime_error "undefined scalar x") (fun () ->
      ignore (Exec.Interp.get_scalar r "x"));
  Alcotest.(check (float 0.0)) "declared scalar" 2.0 (Exec.Interp.get_scalar r "k");
  let ran = Exec.Interp.run (err_program [ loop ~lo:1 ~hi:3 "__i9" [] ]) in
  Alcotest.(check (float 0.0)) "last loop value" 3.0 (Exec.Interp.get_scalar ran "__i9")

(* ------------------------------------------------------------------ *)
(* Reference interpreter                                               *)
(* ------------------------------------------------------------------ *)

let region4 = Region.of_bounds [ (1, 4) ]

let ref_prog body scalars =
  {
    Prog.name = "ref";
    arrays =
      [ { Prog.name = "A"; bounds = Region.of_bounds [ (0, 5) ]; kind = Prog.User } ];
    scalars;
    body;
    live_out = [ "A" ];
  }

let test_reduce_ops () =
  let mk op =
    ref_prog
      [
        Prog.Astmt (Nstmt.make ~region:region4 ~lhs:"A" Expr.(Idx 1));
        Prog.Reduce
          { target = "s"; op; region = region4; arg = Expr.(Ref ("A", v [ 0 ])) };
      ]
      [ ("s", 0.0) ]
  in
  let value op =
    Exec.Refinterp.get_scalar (Exec.Refinterp.run (mk op)) "s"
  in
  Alcotest.(check (float 0.0)) "sum 1..4" 10.0 (value Prog.Rsum);
  Alcotest.(check (float 0.0)) "prod 1..4" 24.0 (value Prog.Rprod);
  Alcotest.(check (float 0.0)) "min" 1.0 (value Prog.Rmin);
  Alcotest.(check (float 0.0)) "max" 4.0 (value Prog.Rmax)

let test_full_rhs_before_store () =
  (* array semantics: [R] A := A@[-1] + 1 must read OLD values of A *)
  let p =
    ref_prog
      [
        Prog.Astmt (Nstmt.make ~region:region4 ~lhs:"A" Expr.(Idx 1));
        (* normalized form: the frontend would insert a temporary; here
           we exercise the reference interpreter directly with the
           temp-free equivalent over two arrays *)
      ]
      []
  in
  let r = Exec.Refinterp.run p in
  Alcotest.(check (float 0.0)) "A[2]" 2.0
    (List.nth (Array.to_list (Exec.Refinterp.get_array r "A")) 2)

let test_sloop_env () =
  (* loop variable visible as a scalar in the body *)
  let p =
    ref_prog
      [
        Prog.Sloop
          {
            var = "t";
            lo = 1;
            hi = 3;
            body =
              [
                Prog.Astmt
                  (Nstmt.make ~region:region4 ~lhs:"A"
                     Expr.(Binop (Add, Svar "t", Const 0.0)));
              ];
          };
      ]
      []
  in
  let r = Exec.Refinterp.run p in
  (* last iteration writes t=3 everywhere in the interior *)
  Alcotest.(check (float 0.0)) "A[1] = 3" 3.0
    (Exec.Refinterp.get_array r "A").(1)

let suites =
  [
    ( "exec.interp",
      [
        Alcotest.test_case "exact counters" `Quick test_counters_exact;
        Alcotest.test_case "values" `Quick test_values;
        Alcotest.test_case "memory trace" `Quick test_trace;
        Alcotest.test_case "bounds enforced" `Quick test_out_of_bounds;
        Alcotest.test_case "undefined scalar" `Quick test_undefined_scalar;
        Alcotest.test_case "descending loop" `Quick test_descending_loop;
        Alcotest.test_case "checksum sensitivity" `Quick test_checksum_sensitivity;
        Alcotest.test_case "footprint" `Quick test_footprint;
        Alcotest.test_case "trace golden" `Quick test_trace_golden;
        Alcotest.test_case "error messages" `Quick test_error_messages;
        Alcotest.test_case "zero-trip loop defers errors" `Quick test_zero_trip_defers;
      ] );
    ( "exec.refinterp",
      [
        Alcotest.test_case "reduction operators" `Quick test_reduce_ops;
        Alcotest.test_case "elementwise store" `Quick test_full_rhs_before_store;
        Alcotest.test_case "loop variable scope" `Quick test_sloop_env;
      ] );
  ]
