(* The served side: a child `uload serve` process on a Unix socket, and
   the closed-loop callers that drive it through Xserve.Client. Each
   caller is one thread on one keep-alive connection and blocks on every
   reply; every latency sample is kept. *)

module Client = Xserve.Client
module Json = Xobs.Json

let clock = Xobs.Clock.monotonic

type server = { pid : int; addr : Xserve.Proto.addr }

(* Servers still running, so an early exit never leaves one behind. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~uload ~sock ~log ~snap ~flags =
  (try Sys.remove sock with Sys_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv =
    Array.of_list
      ([ uload; "serve"; "--socket"; sock; "--tenant"; "bench=" ^ snap ] @ flags)
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close devnull)
      (fun () -> Unix.create_process uload argv devnull out out)
  in
  live := pid :: !live;
  { pid; addr = Xserve.Proto.Unix_sock sock }

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> live := List.filter (( <> ) pid) !live; true
  | exception Unix.Unix_error _ -> true

(* Block until the server answers [probe] with a 200 — the tenant is
   then open — and return the connection. *)
let wait_ready ?(timeout = 60.) srv ~probe =
  let give_up = clock () +. timeout in
  let rec loop () =
    if exited srv.pid then failwith "server exited during start-up";
    if clock () > give_up then failwith "server not ready in time";
    match Client.connect srv.addr with
    | Error _ -> Thread.delay 0.005; loop ()
    | Ok c -> (
        match Client.query c ~tenant:"bench" probe with
        | Ok r when r.Client.status = 200 -> c
        | Ok r ->
            Client.close c;
            failwith (Printf.sprintf "readiness probe answered %d" r.Client.status)
        | Error _ -> Client.close c; Thread.delay 0.005; loop ())
  in
  loop ()

(* SIGTERM, wait for the drain; the exit code ([-1] when signalled). *)
let stop srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let code =
    match Unix.waitpid [] srv.pid with
    | _, Unix.WEXITED c -> c
    | _ -> -1
    | exception Unix.Unix_error _ -> -1
  in
  live := List.filter (( <> ) srv.pid) !live;
  code

(* The server's peak resident set (VmHWM), in MiB. *)
let peak_rss_mb srv =
  let ic = open_in (Printf.sprintf "/proc/%d/status" srv.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> failwith "VmHWM not in /proc status"
      in
      find ())

(* Unlabeled samples of the Prometheus exposition. *)
let scrape c =
  match Client.metrics c with
  | Error m -> failwith ("GET /metrics: " ^ m)
  | Ok text ->
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun line ->
          if line <> "" && line.[0] <> '#' then
            match String.index_opt line ' ' with
            | Some i when not (String.contains (String.sub line 0 i) '{') -> (
                match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
                | Some v -> Hashtbl.replace tbl (String.sub line 0 i) v
                | None -> ())
            | _ -> ())
        (String.split_on_char '\n' text);
      tbl

let delta before after name =
  let get t = Option.value ~default:0. (Hashtbl.find_opt t name) in
  get after -. get before

(* --- Closed-loop callers ---------------------------------------------- *)

type sample = {
  idx : int;  (** request index in the workload's sequence *)
  apply : bool;
  ms : float;  (** client-observed latency *)
  status : int;  (** HTTP status; 0 for a transport error *)
  ok : bool;  (** 200 and the answer/ack checks passed *)
  wrong : bool;  (** 200 with a wrong answer *)
  queue_ms : float option;  (** the 200 body's admission-queue wait *)
  records : int;  (** records acknowledged (applies) *)
  done_at : float;
}

let body_float reply key =
  Option.bind reply.Client.body (fun b -> Option.bind (Json.member key b) Json.to_float)

(* One caller: issue requests from [next] until it runs dry or the
   window closes. [send c x] performs one round trip and [judge x reply]
   says whether a 200 is right and how many records it acknowledged. *)
let caller ~addr ~until ~next ~send ~judge ~apply =
  let conn = ref None in
  let get () =
    match !conn with
    | Some c -> c
    | None -> (
        match Client.connect addr with
        | Ok c -> conn := Some c; c
        | Error m -> failwith ("connect: " ^ m))
  in
  let out = ref [] in
  let rec loop () =
    if clock () < until then
      match next () with
      | None -> ()
      | Some (idx, x) ->
          let c = get () in
          let t0 = clock () in
          let r = send c x in
          let t1 = clock () in
          let ms = (t1 -. t0) *. 1000. in
          let s =
            match r with
            | Error _ ->
                Client.close c;
                conn := None;
                { idx; apply; ms; status = 0; ok = false; wrong = false;
                  queue_ms = None; records = 0; done_at = t1 }
            | Ok reply when reply.Client.status = 200 ->
                let ok, records = judge idx x reply in
                { idx; apply; ms; status = 200; ok; wrong = not ok;
                  queue_ms = body_float reply "queue_ms"; records; done_at = t1 }
            | Ok reply ->
                { idx; apply; ms; status = reply.Client.status; ok = false;
                  wrong = false; queue_ms = None; records = 0; done_at = t1 }
          in
          out := s :: !out;
          loop ()
  in
  Fun.protect ~finally:(fun () -> Option.iter Client.close !conn) loop;
  !out

let query_send c text = Client.query c ~tenant:"bench" text
let apply_send c ops = Client.apply c ~tenant:"bench" ops

(* Run the callers in parallel threads for the window; all samples. *)
let run_callers callers =
  let results = Array.make (List.length callers) [] in
  let errors = Array.make (List.length callers) None in
  let threads =
    List.mapi
      (fun i f ->
        Thread.create
          (fun () ->
            try results.(i) <- f ()
            with e -> errors.(i) <- Some (Printexc.to_string e))
          ())
      callers
  in
  List.iter Thread.join threads;
  Array.iter (Option.iter (fun m -> failwith ("caller failed: " ^ m))) errors;
  List.concat (Array.to_list results)

(* A shared cursor over a request sequence. *)
let cursor n f =
  let i = Atomic.make 0 in
  fun () ->
    let k = Atomic.fetch_and_add i 1 in
    if k < n then Some (k, f k) else None
