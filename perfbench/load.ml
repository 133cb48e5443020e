(* The closed-loop load: [clients] callers in one process, each
   sending its next request only after the previous reply arrived,
   through the same [Service.Client.roundtrip] that zapc --connect
   uses.  Callers take requests from one shared cursor. *)

type outcome = {
  latency_ms : float array;  (** per request, schedule order *)
  replies : (Service.Api.response, string) result array;
  wall_s : float;
}

let run ~socket ~clients (reqs : Service.Api.request array) =
  let n = Array.length reqs in
  let latency_ms = Array.make n nan in
  let replies = Array.make n (Error "not sent") in
  let next = Atomic.make 0 in
  let rec caller () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let t0 = Obs.now_ns () in
      let r = Service.Client.roundtrip ~socket reqs.(i) in
      latency_ms.(i) <- (Obs.now_ns () -. t0) /. 1e6;
      replies.(i) <- Result.map_error Obs.Diagnostic.to_string r;
      caller ()
    end
  in
  let t0 = Obs.now_ns () in
  let others = List.init (clients - 1) (fun _ -> Domain.spawn caller) in
  caller ();
  List.iter Domain.join others;
  { latency_ms; replies; wall_s = (Obs.now_ns () -. t0) /. 1e9 }
