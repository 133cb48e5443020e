(* Spans recorded by the benchmark around its calls into each layer.
   Kept in memory and written out when the run ends.  Each span has a
   name, start and end, its parent, the request it belongs to, and the
   minor-heap words the calling domain allocated inside it. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at top level *)
  request : int;
  start_ns : float;
  end_ns : float;
  alloc_words : float;
}

let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_request = ref (-1)

(* Words allocated on the minor heap: every block of up to 256 words.
   Unlike the major-heap counters, it is exact, so it repeats from run
   to run at one job; blocks allocated straight in the major heap are
   not in it. *)
let allocated () = Gc.minor_words ()

let with_span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let a0 = allocated () in
  let t0 = Obs.now_ns () in
  let finish () =
    let t1 = Obs.now_ns () in
    let a1 = allocated () in
    stack := List.tl !stack;
    spans :=
      {
        id;
        name;
        parent;
        request = !current_request;
        start_ns = t0;
        end_ns = t1;
        alloc_words = a1 -. a0;
      }
      :: !spans
  in
  Fun.protect ~finally:finish f

let for_request i f =
  current_request := i;
  Fun.protect ~finally:(fun () -> current_request := -1) f

let all () = List.rev !spans
let duration s = s.end_ns -. s.start_ns

(* Self time: duration minus the part its children cover (children
   are nested and sequential, so their durations add). *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    (all ())

let write path =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("id", Obs.Json.Int s.id);
                ("name", Obs.Json.String s.name);
                ("parent", Obs.Json.Int s.parent);
                ("request", Obs.Json.Int s.request);
                ("start_ns", Obs.Json.Float s.start_ns);
                ("end_ns", Obs.Json.Float s.end_ns);
                ("self_ns", Obs.Json.Float self);
                ("alloc_words", Obs.Json.Float s.alloc_words);
              ]));
      output_char oc '\n')
    (self_times ());
  close_out oc
