(* A private zapd: spawned with its own socket and artifact store,
   observed through /proc, and shut down over the wire. *)

type t = {
  pid : int;
  socket : string;
  native_root : string;
  banner : in_channel;  (** the daemon's stdout, kept open until exit *)
}

exception Failed of string

let failf fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

(* Spawn and block until the daemon prints its listening banner, which
   it does only once the socket accepts. *)
let spawn ~zapd ~jobs ~socket ~native_root =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv =
    [|
      zapd; "--socket"; socket; "--native-root"; native_root; "--jobs";
      string_of_int jobs;
    |]
  in
  let pid = Unix.create_process zapd argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let banner = Unix.in_channel_of_descr r in
  let line = try input_line banner with End_of_file -> "" in
  if not (String.starts_with ~prefix:"zapd: listening" line) then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    close_in banner;
    failf "zapd did not start (said %S)" line
  end;
  { pid; socket; native_root; banner }

let roundtrip t req =
  match Service.Client.roundtrip ~socket:t.socket req with
  | Ok resp -> resp
  | Error d -> failf "%s" (Obs.Diagnostic.to_string d)

let stats t =
  match roundtrip t Service.Api.Stats with
  | Service.Api.Stats_reply s -> s
  | _ -> failf "zapd answered a stats request with something else"

let stop t =
  (match Service.Client.roundtrip ~socket:t.socket Service.Api.Shutdown with
  | Ok _ -> ()
  | Error _ -> ( try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] t.pid);
  close_in t.banner

let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
  close_in_noerr t.banner

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* user + system CPU of the daemon and of the children it has reaped
   (cc, the linker, native runners), in milliseconds.  /proc reports
   clock ticks of USER_HZ = 100 on Linux. *)
let cpu_ms t =
  let s = read_file (Printf.sprintf "/proc/%d/stat" t.pid) in
  (* field 3 (state) starts two bytes after the command name's ')' *)
  let from = String.rindex s ')' + 2 in
  let f = String.split_on_char ' ' (String.sub s from (String.length s - from)) in
  let tick i = float_of_string (List.nth f (i - 3)) in
  10.0 *. (tick 14 +. tick 15 +. tick 16 +. tick 17)

(* Peak resident set (VmHWM) in MB. *)
let peak_rss_mb t =
  let s = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.0)
