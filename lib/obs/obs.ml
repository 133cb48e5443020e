(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let float_str f =
    if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
      "null" (* JSON has no non-finite numbers *)
    else if Float.is_integer f && Float.abs f < 1e15 then
      (* integral floats print with a trailing ".0" so they stay floats *)
      Printf.sprintf "%.1f" f
    else
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_str f)
    | String s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | List xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            write b x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\":";
            write b v)
          kvs;
        Buffer.add_char b '}'

  let to_string t =
    let b = Buffer.create 256 in
    write b t;
    Buffer.contents b

  let rec pp ppf = function
    | (Null | Bool _ | Int _ | Float _ | String _) as v ->
        Format.pp_print_string ppf (to_string v)
    | List [] -> Format.pp_print_string ppf "[]"
    | List xs ->
        Format.fprintf ppf "@[<v 2>[@,%a@]@,]"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@,")
             pp)
          xs
    | Obj [] -> Format.pp_print_string ppf "{}"
    | Obj kvs ->
        Format.fprintf ppf "@[<v 2>{@,%a@]@,}"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@,")
             (fun ppf (k, v) -> Format.fprintf ppf "\"%s\": %a" (escape k) pp v))
          kvs

  exception Parse of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let fail fmt =
      Printf.ksprintf (fun m -> raise (Parse (Printf.sprintf "%s at %d" m !pos))) fmt
    in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = Some c then advance () else fail "expected %C" c
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail "bad literal"
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some '"' -> Buffer.add_char b '"'; advance (); go ()
            | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
            | Some '/' -> Buffer.add_char b '/'; advance (); go ()
            | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
            | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
            | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
            | Some 'b' -> Buffer.add_char b '\b'; advance (); go ()
            | Some 'f' -> Buffer.add_char b '\012'; advance (); go ()
            | Some 'u' ->
                advance ();
                let digit i =
                  match if !pos + i < n then s.[!pos + i] else ' ' with
                  | '0' .. '9' as c -> Char.code c - Char.code '0'
                  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                  | _ -> fail "bad \\u escape"
                in
                let code =
                  (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4)
                  lor digit 3
                in
                pos := !pos + 4;
                (* our own printer only escapes control characters *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else Buffer.add_char b '?';
                go ()
            | _ -> fail "bad escape")
        | Some c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c when is_num_char c -> true | _ -> false) do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "bad number %S" tok)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin advance (); List [] end
          else begin
            let items = ref [ parse_value () ] in
            let rec more () =
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items := parse_value () :: !items;
                  more ()
              | Some ']' -> advance ()
              | _ -> fail "expected ',' or ']'"
            in
            more ();
            List (List.rev !items)
          end
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin advance (); Obj [] end
          else begin
            let field () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              (k, v)
            in
            let items = ref [ field () ] in
            let rec more () =
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items := field () :: !items;
                  more ()
              | Some '}' -> advance ()
              | _ -> fail "expected ',' or '}'"
            in
            more ();
            Obj (List.rev !items)
          end
      | Some c -> if is_start_of_number c then parse_number () else fail "unexpected %C" c
    and is_start_of_number c =
      match c with '0' .. '9' | '-' -> true | _ -> false
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then raise (Parse "trailing garbage");
      v
    with
    | v -> Ok v
    | exception Parse m -> Error m

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None

  let rec find v path =
    match path with
    | [] -> Some v
    | k :: rest -> ( match member k v with None -> None | Some v' -> find v' rest)

  (* Bidirectional codecs: one value per wire type *)
  module Codec = struct
    type json = t
    type 'a t = { enc : 'a -> json; dec : json -> ('a, string) result }

    let ( let* ) = Result.bind

    let scalar what enc get =
      {
        enc;
        dec =
          (fun j ->
            match get j with
            | Some v -> Ok v
            | None -> Error ("expected " ^ what));
      }

    let bool =
      scalar "a boolean" (fun b -> Bool b) (function
        | Bool b -> Some b
        | _ -> None)

    let string =
      scalar "a string" (fun s -> String s) (function
        | String s -> Some s
        | _ -> None)

    (* integral floats are accepted only inside the int range, where the
       conversion is exact *)
    let int =
      let lo = Float.of_int min_int in
      scalar "an integer" (fun i -> Int i) (function
        | Int i -> Some i
        | Float f when Float.is_integer f && lo <= f && f < -.lo ->
            Some (int_of_float f)
        | _ -> None)

    let float =
      scalar "a number" (fun f -> Float f) (function
        | Int i -> Some (float_of_int i)
        | Float f -> Some f
        | _ -> None)

    let json = { enc = Fun.id; dec = Result.ok }

    let nullable c =
      {
        enc = (function None -> Null | Some v -> c.enc v);
        dec =
          (function Null -> Ok None | j -> Result.map Option.some (c.dec j));
      }

    let map_result f l =
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: tl ->
            let* y = f x in
            go (y :: acc) tl
      in
      go [] l

    let list c =
      {
        enc = (fun l -> List (List.map c.enc l));
        dec =
          (function
          | List l -> map_result c.dec l | _ -> Error "expected an array");
      }

    let assoc c =
      let entry (k, j) = Result.map (fun v -> (k, v)) (c.dec j) in
      {
        enc = (fun kvs -> Obj (List.map (fun (k, v) -> (k, c.enc v)) kvs));
        dec =
          (function
          | Obj kvs -> map_result entry kvs | _ -> Error "expected an object");
      }

    let enum what name of_name =
      {
        enc = (fun v -> String (name v));
        dec =
          (fun j ->
            let* s = string.dec j in
            match of_name s with
            | Some v -> Ok v
            | None -> Error (Printf.sprintf "unknown %s %S" what s));
      }

    let fix f =
      let self = ref None in
      let get () =
        match !self with
        | Some c -> c
        | None -> invalid_arg "Json.fix: codec used while being defined"
      in
      let c =
        f { enc = (fun v -> (get ()).enc v); dec = (fun j -> (get ()).dec j) }
      in
      self := Some c;
      c

    (* An object under construction: [fields] prepends the members of a
       value (so the list comes out reversed), [build] reads them back
       into the constructor applied so far. *)
    type ('o, 'k) obj = {
      fields : 'o -> (string * json) list -> (string * json) list;
      build : (string * json) list -> ('k, string) result;
    }

    let obj k = { fields = (fun _ acc -> acc); build = (fun _ -> Ok k) }

    let mem ?default ?(omit = fun _ -> false) name c get o =
      {
        fields =
          (fun v acc ->
            let acc = o.fields v acc in
            if omit v then acc else (name, c.enc (get v)) :: acc);
        build =
          (fun kvs ->
            let* k = o.build kvs in
            match (List.assoc_opt name kvs, default) with
            | Some j, _ -> Result.map k (c.dec j)
            | None, Some d -> Ok (k d)
            | None, None -> Error (Printf.sprintf "missing field %S" name));
      }

    let opt name c get =
      mem ~default:None
        ~omit:(fun v -> Option.is_none (get v))
        name (nullable c) get

    let finish o =
      {
        enc = (fun v -> Obj (List.rev (o.fields v [])));
        dec =
          (function Obj kvs -> o.build kvs | _ -> Error "expected an object");
      }

    type ('k, 'a) case = {
      tag : 'k;
      project : 'a -> (string * json) list option;
      inject : json -> ('a, string) result;
    }

    let case tag c inj prj =
      let members v =
        match c.enc v with
        | Obj kvs -> kvs
        | _ -> invalid_arg "Json.case: the payload must encode to an object"
      in
      {
        tag;
        project = (fun v -> Option.map members (prj v));
        inject = (fun j -> Result.map inj (c.dec j));
      }

    let variant name tag cases =
      let tagged c v =
        Option.map
          (fun kvs -> Obj ((name, tag.enc c.tag) :: kvs))
          (c.project v)
      in
      {
        enc =
          (fun v ->
            match List.find_map (fun c -> tagged c v) cases with
            | Some j -> j
            | None -> invalid_arg ("Json.variant: no case for this " ^ name));
        dec =
          (fun j ->
            match member name j with
            | None -> Error (Printf.sprintf "missing field %S" name)
            | Some tj -> (
                let* t = tag.dec tj in
                match List.find_opt (fun c -> c.tag = t) cases with
                | Some c -> c.inject j
                | None ->
                    Error
                      (Printf.sprintf "unknown %s %s" name (to_string tj))));
      }
  end
end

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

module Diagnostic = struct
  type severity = Error | Warning

  type t = {
    severity : severity;
    phase : string;
    loc : (string * int) option;
    message : string;
  }

  let error ?loc ~phase message = { severity = Error; phase; loc; message }
  let warning ?loc ~phase message = { severity = Warning; phase; loc; message }

  let errorf ?loc ~phase fmt =
    Printf.ksprintf (fun message -> error ?loc ~phase message) fmt

  let severity_name = function Error -> "error" | Warning -> "warning"

  let to_string d =
    let loc =
      match d.loc with
      | Some (file, line) when line > 0 -> Printf.sprintf "%s:%d: " file line
      | Some (file, _) -> Printf.sprintf "%s: " file
      | None -> ""
    in
    Printf.sprintf "%s%s %s: %s" loc d.phase (severity_name d.severity)
      d.message

  let pp ppf d = Format.pp_print_string ppf (to_string d)

  let codec =
    let open Json.Codec in
    let severity_of_name = function
      | "error" -> Some Error
      | "warning" -> Some Warning
      | _ -> None
    in
    obj (fun severity phase file line message ->
        let loc =
          match (file, line) with Some f, Some l -> Some (f, l) | _ -> None
        in
        { severity; phase; loc; message })
    |> mem "severity" (enum "severity" severity_name severity_of_name)
         (fun d -> d.severity)
    |> mem "phase" string (fun d -> d.phase)
    |> opt "file" string (fun d -> Option.map fst d.loc)
    |> opt "line" int (fun d -> Option.map snd d.loc)
    |> mem "message" string (fun d -> d.message)
    |> finish

  let to_json d = codec.enc d
end

exception Error of Diagnostic.t

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

type fusion_reason =
  | Not_contractible
  | Region_mismatch
  | Nonnull_flow
  | No_loop_structure
  | Cycle
  | External_veto

let fusion_reason_name = function
  | Not_contractible -> "not-contractible"
  | Region_mismatch -> "region-mismatch"
  | Nonnull_flow -> "nonnull-flow"
  | No_loop_structure -> "no-loop-structure"
  | Cycle -> "cycle"
  | External_veto -> "external-veto"

let all_fusion_reasons =
  [ Not_contractible; Region_mismatch; Nonnull_flow; No_loop_structure;
    Cycle; External_veto ]

type event =
  | Fusion_attempt of { array : string option; clusters : int }
  | Fusion_accept of { array : string option; clusters : int }
  | Fusion_reject of { array : string option; reason : fusion_reason }
  | Contraction_candidate of { array : string }
  | Contraction_perform of { array : string; shape : string }
  | Reduction_absorbed of { reduce : int; cluster : int }
  | Note of { name : string; value : string }

let event_counter = function
  | Fusion_attempt _ -> Some "fusion.attempted"
  | Fusion_accept _ -> Some "fusion.accepted"
  | Fusion_reject { reason; _ } ->
      Some ("fusion.rejected." ^ fusion_reason_name reason)
  | Contraction_candidate _ -> Some "contraction.candidates"
  | Contraction_perform _ -> Some "contraction.performed"
  | Reduction_absorbed _ -> Some "reduction.absorbed"
  | Note _ -> None

let event_text e =
  let arr = function Some x -> " for " ^ x | None -> "" in
  match e with
  | Fusion_attempt { array; clusters } ->
      Printf.sprintf "fusion: attempt %d-cluster merge%s" clusters (arr array)
  | Fusion_accept { array; clusters } ->
      Printf.sprintf "fusion: merged %d clusters%s" clusters (arr array)
  | Fusion_reject { array; reason } ->
      Printf.sprintf "fusion: rejected%s (%s)" (arr array)
        (fusion_reason_name reason)
  | Contraction_candidate { array } ->
      Printf.sprintf "contraction: candidate %s" array
  | Contraction_perform { array; shape } ->
      Printf.sprintf "contraction: %s -> %s" array shape
  | Reduction_absorbed { reduce; cluster } ->
      Printf.sprintf "reduction %d absorbed into cluster P%d" reduce cluster
  | Note { name; value } -> Printf.sprintf "%s: %s" name value

(* ------------------------------------------------------------------ *)
(* Spans, sinks, recorders                                             *)
(* ------------------------------------------------------------------ *)

type span = {
  span_name : string;
  elapsed_ns : float;
  children : span list;
}

type report = {
  spans : span list;
  counters : (string * int) list;
  totals : (string * float) list;
  events : event list;
}

type sink = {
  on_open : depth:int -> string -> unit;
  on_close : depth:int -> string -> float -> unit;
  on_event : depth:int -> event -> unit;
}

let null_sink =
  {
    on_open = (fun ~depth:_ _ -> ());
    on_close = (fun ~depth:_ _ _ -> ());
    on_event = (fun ~depth:_ _ -> ());
  }

let text_sink ppf =
  let indent depth = String.make (2 * depth) ' ' in
  {
    on_open =
      (fun ~depth name -> Format.fprintf ppf "%s> %s@." (indent depth) name);
    on_close =
      (fun ~depth name ns ->
        Format.fprintf ppf "%s< %s  %.3f ms@." (indent depth) name (ns /. 1e6));
    on_event =
      (fun ~depth e -> Format.fprintf ppf "%s- %s@." (indent depth) (event_text e));
  }

type frame = {
  fname : string;
  start : float;
  mutable kids : span list;  (* reversed *)
}

type t = {
  sink : sink;
  mutable stack : frame list;  (* innermost first *)
  mutable top : span list;  (* reversed *)
  counters : (string, int) Hashtbl.t;
  float_totals : (string, float) Hashtbl.t;
  mutable events : event list;  (* reversed *)
}

let seeded_counters =
  [ "fusion.attempted"; "fusion.accepted"; "contraction.candidates";
    "contraction.performed"; "reduction.absorbed"; "dep.edges" ]
  @ List.map
      (fun r -> "fusion.rejected." ^ fusion_reason_name r)
      all_fusion_reasons

let create ?(sink = null_sink) () =
  let counters = Hashtbl.create 32 in
  List.iter (fun k -> Hashtbl.replace counters k 0) seeded_counters;
  {
    sink;
    stack = [];
    top = [];
    counters;
    float_totals = Hashtbl.create 8;
    events = [];
  }

(* The installed recorder is *domain-local*: a recorder's span stack,
   counter tables and event list are plain mutable state, so sharing
   one recorder between domains would race.  Each domain instead sees
   its own current-recorder slot (fresh domains start at None, so
   instrumentation inside pool workers is a no-op unless the worker
   installs its own recorder), and a worker's finished report is
   folded into the parent with [merge] — in task order, so the merged
   report is deterministic regardless of domain scheduling. *)
let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let active () = Domain.DLS.get current_key

let enabled () = active () <> None

let run t f =
  let prev = Domain.DLS.get current_key in
  Domain.DLS.set current_key (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key prev) f

(* CLOCK_MONOTONIC via bechamel's stub: gettimeofday is subject to NTP
   steps, which made span durations occasionally negative. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

let span name f =
  match active () with
  | None -> f ()
  | Some r ->
      let depth = List.length r.stack in
      r.sink.on_open ~depth name;
      let fr = { fname = name; start = now_ns (); kids = [] } in
      r.stack <- fr :: r.stack;
      let finish () =
        let elapsed = now_ns () -. fr.start in
        (match r.stack with
        | f' :: rest when f' == fr -> r.stack <- rest
        | _ -> () (* unbalanced: a nested span escaped; drop silently *));
        let s =
          { span_name = name; elapsed_ns = elapsed; children = List.rev fr.kids }
        in
        (match r.stack with
        | parent :: _ -> parent.kids <- s :: parent.kids
        | [] -> r.top <- s :: r.top);
        r.sink.on_close ~depth name elapsed
      in
      Fun.protect ~finally:finish f

let count name n =
  match active () with
  | None -> ()
  | Some r ->
      let cur = try Hashtbl.find r.counters name with Not_found -> 0 in
      Hashtbl.replace r.counters name (cur + n)

let total name x =
  match active () with
  | None -> ()
  | Some r ->
      let cur = try Hashtbl.find r.float_totals name with Not_found -> 0.0 in
      Hashtbl.replace r.float_totals name (cur +. x)

let event e =
  match active () with
  | None -> ()
  | Some r ->
      r.events <- e :: r.events;
      (match event_counter e with
      | Some name ->
          let cur = try Hashtbl.find r.counters name with Not_found -> 0 in
          Hashtbl.replace r.counters name (cur + 1)
      | None -> ());
      r.sink.on_event ~depth:(List.length r.stack) e

let report t =
  let sorted tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
                   |> List.sort compare in
  {
    spans = List.rev t.top;
    counters = sorted t.counters;
    totals = sorted t.float_totals;
    events = List.rev t.events;
  }

(* Fold a finished child recorder's report into [t]: counters and
   totals add, the child's top-level spans and events append after
   everything already recorded.  Pool drivers give each parallel task
   its own recorder and merge the task reports back *in task order*,
   so the combined report is identical whichever domain finished
   first. *)
let merge t (r : report) =
  List.iter
    (fun (k, v) ->
      let cur = try Hashtbl.find t.counters k with Not_found -> 0 in
      Hashtbl.replace t.counters k (cur + v))
    r.counters;
  List.iter
    (fun (k, v) ->
      let cur = try Hashtbl.find t.float_totals k with Not_found -> 0.0 in
      Hashtbl.replace t.float_totals k (cur +. v))
    r.totals;
  (* both lists are stored reversed *)
  t.top <- List.rev_append r.spans t.top;
  t.events <- List.rev_append r.events t.events

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let rec span_to_json s =
  Json.Obj
    [ ("name", Json.String s.span_name);
      ("ns", Json.Float s.elapsed_ns);
      ("children", Json.List (List.map span_to_json s.children)) ]

let report_to_json r =
  Json.Obj
    [ ("spans", Json.List (List.map span_to_json r.spans));
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counters));
      ("totals", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.totals)) ]

let pp_spans ppf spans =
  let rec go depth s =
    Format.fprintf ppf "%s%s  %.3f ms@." (String.make (2 * depth) ' ')
      s.span_name (s.elapsed_ns /. 1e6);
    List.iter (go (depth + 1)) s.children
  in
  List.iter (go 0) spans

let pp_report ppf r =
  pp_spans ppf r.spans;
  List.iter
    (fun (k, v) -> if v <> 0 then Format.fprintf ppf "%-40s %10d@." k v)
    r.counters;
  List.iter
    (fun (k, v) -> Format.fprintf ppf "%-40s %10.0f@." k v)
    r.totals
