(* The benchmark. One invocation runs one workload:

     bench.exe --workload W --seed N --seconds S --trace 0|1 --uload PATH

   It generates the workload's document, builds a path-partitioned
   catalog, saves a snapshot and serves it from a child
   `uload serve` process; checks served answers against the in-process
   engine; drives the server with closed-loop callers for S seconds; then
   drains the server with SIGTERM and reopens the tenant from snapshot +
   WAL to check durability. With --trace 1 it also replays the requests
   in process, timing each layer. The last line of standard output is
   one JSON object: {correct, attempted, failed, metrics}. *)

module E = Xengine.Engine
module Client = Xserve.Client
module W = Workloads

let clock = Xobs.Clock.monotonic
(* Set-ups per run; [setup_s] is their median. A bib set-up takes
   ~50 ms, an XMark one ~2 s. *)
let setup_reps = function W.Plan_miss -> 3 | W.Read_hot | W.Write_mix -> 7
let max_failed_share = 0.01
let unattributed_tolerance = 0.05
let replay_budget_s = 2.
let watchdog_s = 170.
let work_dir = ".perfbench_tmp"  (* per-run scratch, removed on exit *)
let out_dir = ".perfbench_out"  (* span files of traced runs *)
(* Background-checkpoint thresholds (records of replay debt). write-mix
   checkpoints a few times per window. plan-miss writes only in its
   idle-apply phase; each XMark record costs most of a second to replay
   at reopen, so its tenant checkpoints every few records. read-hot,
   too, writes only after its read window. *)
let checkpoint_every = function W.Write_mix -> 150 | W.Read_hot -> 50 | W.Plan_miss -> 6

(* After the read window of read-hot and plan-miss, a writer alone
   issues /apply batches — up to a count, within a time cap — so apply
   latencies are measured on every workload. On read-hot the phase runs
   for its whole cap, long enough to average over the machine's slow and
   fast spells. An XMark apply maintains ~335 modules and costs most of
   a second, and so does replaying each of its records at reopen:
   plan-miss issues a few. *)
let idle_applies = function
  | W.Plan_miss -> (12, 14.)
  | W.Read_hot | W.Write_mix -> (max_int, 6.)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --- Checks ----------------------------------------------------------------- *)

(* The answer gate: a served answer must be present, non-empty and
   byte-identical to the in-process one. *)
let check_answer ~served ~local =
  match served with
  | None -> Error "no output in the served reply"
  | Some s when s = "" -> Error "empty answer"
  | Some s when s <> local -> Error "served answer differs from in-process answer"
  | Some _ -> Ok ()

let self_test () =
  let fail m = failwith ("self-test: " ^ m) in
  let a = Array.init 10 (fun i -> float_of_int (i + 1)) in
  if Stats.percentile a 50. <> 5. then fail "p50 of 1..10";
  if Stats.percentile a 90. <> 9. then fail "p90 of 1..10";
  if Stats.percentile a 100. <> 10. then fail "p100 of 1..10";
  if Stats.percentile [| 7. |] 90. <> 7. then fail "p90 of one sample";
  let s = Stats.summarize [ 3.; 1.; 2.; 5.; 4. ] in
  if s.Stats.n <> 5 || s.Stats.p50 <> 3. || s.Stats.p90 <> 5. then fail "summarize";
  if Stats.median [ 4.; 1.; 3.; 2. ] <> 2.5 then fail "even median";
  (match Stats.percentile [||] 50. with
  | _ -> fail "empty percentile accepted"
  | exception Invalid_argument _ -> ());
  if check_answer ~served:(Some "<a>x</a>") ~local:"<a>x</a>" <> Ok () then
    fail "gate rejects a matching answer";
  List.iter
    (fun (served, local) ->
      if check_answer ~served ~local = Ok () then fail "gate accepts a bad answer")
    [ (None, "<a/>"); (Some "", ""); (Some "<a>x</a>", "<a>y</a>"); (Some "<a>x</a>", "") ]

(* --- Files ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  Fun.protect
    ~finally:(fun () -> close_in ic; close_out oc)
    (fun () -> output_string oc (really_input_string ic (in_channel_length ic)))

(* --- Set-up ------------------------------------------------------------------ *)

type setup = {
  doc : Xdm.Doc.t;
  snap : string;  (* the tenant's snapshot, checkpointed in place *)
  pristine : string;  (* a copy as saved, for the in-process replays *)
  snap_bytes : int;
  srv : Served.server;
  setup_s : float list;
  save_ms : float list;
}

(* Generation → catalog → snapshot save → spawn → first 200, [setup_reps]
   times; all but the last server are drained and discarded. *)
let set_up kind ~uload ~work =
  let flags =
    [ "--domains"; "2"; "--queue"; "256"; "--checkpoint-every";
      string_of_int (checkpoint_every kind) ]
  in
  let snap = Filename.concat work "tenant.snap" in
  let once () =
    rm_rf snap;
    rm_rf (snap ^ ".wal");
    let t0 = clock () in
    let doc = W.generate kind in
    let summary = Xsummary.Summary.of_doc doc in
    let engine = E.of_doc doc (Xstorage.Models.path_partitioned summary) in
    let bytes, save_ms = Layers.time_ms (fun () -> E.save_snapshot engine snap) in
    let srv =
      Served.spawn ~uload ~sock:(Filename.concat work "s.sock")
        ~log:(Filename.concat work "server.log") ~snap ~flags
    in
    Client.close (Served.wait_ready srv ~probe:W.probe_query);
    (doc, bytes, srv, clock () -. t0, save_ms)
  in
  let rec reps k setups saves =
    let doc, bytes, srv, s, ms = once () in
    if k + 1 < setup_reps kind then begin
      let code = Served.stop srv in
      if code <> 0 then failwith (Printf.sprintf "server drain exited %d" code);
      reps (k + 1) (s :: setups) (ms :: saves)
    end
    else begin
      let pristine = snap ^ ".pristine" in
      copy_file snap pristine;
      { doc; snap; pristine; snap_bytes = bytes; srv; setup_s = s :: setups;
        save_ms = ms :: saves }
    end
  in
  reps 0 [] []

let with_conn srv f =
  match Client.connect srv.Served.addr with
  | Error m -> failwith ("connect: " ^ m)
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let served_output c text =
  match Client.query c ~tenant:"bench" text with
  | Ok r when r.Client.status = 200 -> Client.output r
  | Ok r -> failwith (Printf.sprintf "gate query answered %d: %s" r.Client.status r.Client.raw)
  | Error m -> failwith ("gate query: " ^ m)

(* --- One run ----------------------------------------------------------------- *)

(* The answer gate, before any timing: every read-mix text (or the first
   round of plan-miss lookups) served and answered in process. Returns
   the in-process answers, which read-hot then expects on every reply. *)
let gate st engine texts =
  with_conn st.srv (fun c ->
      List.map
        (fun text ->
          let local = fst (Layers.engine_query engine text) in
          (match check_answer ~served:(served_output c text) ~local with
          | Ok () -> ()
          | Error m -> failwith (Printf.sprintf "answer gate: %s for %s" m text));
          local)
        texts)

(* Acknowledged writes: inserted batch numbers and the last acknowledged
   value per updated handle. *)
type acked = { mutable inserts : int list; updates : (int, string) Hashtbl.t }

(* A writer caller issuing batches [0 .. limit-1] until [until]. *)
let writer st spec acked ~seed ~until ~limit =
  let rng = Random.State.make [| seed; 4 |] in
  let k = ref (-1) in
  let next () =
    incr k;
    if !k >= limit then None else Some (!k, W.batch spec ~seed ~rng !k)
  in
  let judge k (ops, (node, value)) r =
    let applied =
      Option.bind r.Client.body (fun b -> Option.bind (Xobs.Json.member "applied" b) Xobs.Json.to_int)
    in
    if applied = Some (List.length ops) then begin
      acked.inserts <- k :: acked.inserts;
      Hashtbl.replace acked.updates node value;
      (true, List.length ops)
    end
    else (false, 0)
  in
  fun () ->
    Served.caller ~addr:st.srv.Served.addr ~until ~next
      ~send:(fun c (ops, _) -> Served.apply_send c ops) ~judge ~apply:true

(* Reopen the drained tenant from snapshot + WAL and check every
   acknowledged write is there. Returns (durable, records replayed,
   reopen ms). *)
let check_durability st acked ~seed =
  let (engine, replayed), reopen_ms =
    Layers.time_ms (fun () ->
        let e = E.of_snapshot st.snap in
        let wal = st.snap ^ ".wal" in
        if not (Sys.file_exists wal) then (e, 0)
        else
          match E.attach_wal_r e wal with
          | Ok n -> E.detach_wal e; (e, n)
          | Error err -> failwith ("reopen: " ^ Xengine.Xerror.to_string err))
  in
  let doc = Option.get (E.document engine) in
  let present = Hashtbl.create 1024 in
  Xdm.Doc.iter
    (fun n -> if Xdm.Doc.kind doc n = Xdm.Doc.Text then Hashtbl.replace present (Xdm.Doc.value doc n) ())
    doc;
  let lost =
    List.length
      (List.filter (fun k -> not (Hashtbl.mem present (W.inserted_value ~seed k))) acked.inserts)
    + Hashtbl.fold (fun node v n -> if Xdm.Doc.value doc node <> v then n + 1 else n) acked.updates 0
  in
  log "durability: %d acknowledged inserts, %d updated nodes, %d lost; %d records replayed"
    (List.length acked.inserts) (Hashtbl.length acked.updates) lost replayed;
  (lost = 0, replayed, reopen_ms)

(* The wall time a list of samples spans, from the first send to the
   last reply. *)
let span_s = function
  | [] -> nan
  | samples ->
      let first = List.fold_left (fun m s -> Float.min m (s.Served.done_at -. (s.Served.ms /. 1000.))) infinity samples in
      let last = List.fold_left (fun m s -> Float.max m s.Served.done_at) neg_infinity samples in
      last -. first

let ok_ms samples = List.filter_map (fun s -> if s.Served.ok then Some s.Served.ms else None) samples

(* The traced run's per-layer numbers. [queries] are the window's query
   samples, [text_of] maps a request index to its text. *)
let per_layer kind st ~workload ~seed ~work ~open_engine ~loads ~queries ~text_of ~window
    ~delta ~delta_final ~failed_share ~replayed ~reopen_ms =
  (* Replay the served queries in process, in request order, as far as
     the budget allows: first through Engine.query_string_r, then layer
     by layer under spans. *)
  let engine = open_engine () in
  let give_up = clock () +. replay_budget_s in
  let rec untraced acc = function
    | idx :: rest when acc = [] || clock () < give_up ->
        let out, ms = Layers.engine_query engine (text_of idx) in
        untraced ((idx, out, ms) :: acc) rest
    | _ -> List.rev acc
  in
  let idxs = List.sort compare (List.filter_map (fun s -> if s.Served.ok then Some s.Served.idx else None) queries) in
  let replayed_reqs = untraced [] idxs in
  let n = List.length replayed_reqs in
  let in_replay = Hashtbl.create n in
  List.iter (fun (i, _, _) -> Hashtbl.replace in_replay i ()) replayed_reqs;
  let served = Stats.summarize (ok_ms (List.filter (fun s -> Hashtbl.mem in_replay s.Served.idx) queries)) in
  let inproc = Stats.summarize (List.map (fun (_, _, ms) -> ms) replayed_reqs) in
  let untraced_total = List.fold_left (fun a (_, _, ms) -> a +. ms) 0. replayed_reqs in
  let spans = Spans.create () in
  let c =
    Layers.decomposed ~spans engine
      (List.map (fun (i, _, _) -> text_of i) replayed_reqs)
      ~expected:(List.map (fun (_, o, _) -> o) replayed_reqs)
  in
  (* The self-time table: per layer, and the share no layer covers. *)
  let table = Spans.self_table spans in
  let total = Spans.root_total spans in
  let self name = Option.value ~default:0. (List.assoc_opt name table) in
  let per_req name = self name /. float_of_int n in
  let unattributed = Stats.ratio (self "request") total in
  mkdir_p out_dir;
  let jsonl = Printf.sprintf "%s/spans-%s-%d.jsonl" out_dir workload seed in
  Spans.write_jsonl spans jsonl;
  Printf.printf "traced replay: %d requests, %d spans written to %s\n" n
    (List.length (Spans.spans spans)) jsonl;
  Printf.printf "%-16s %12s %12s %8s\n" "span" "self ms" "ms/request" "share";
  List.iter
    (fun (name, ms) ->
      Printf.printf "%-16s %12.3f %12.4f %7.2f%%\n" name ms (ms /. float_of_int n)
        (100. *. Stats.ratio ms total))
    table;
  Printf.printf
    "layer self-times sum to %.3f of the %.3f ms traced total: %.2f%% unattributed \
     (tolerance %.0f%%); untraced Engine.query_string_r total %.3f ms\n"
    (total -. self "request") total (100. *. unattributed) (100. *. unattributed_tolerance)
    untraced_total;
  if c.Layers.mismatches > 0 then
    log "traced replay: %d outputs differ from the engine's" c.Layers.mismatches;
  if unattributed > unattributed_tolerance then
    log "traced replay: %.2f%% of the traced time is outside every layer" (100. *. unattributed);
  let trace_ok = c.Layers.mismatches = 0 && unattributed <= unattributed_tolerance in
  let wp =
    Layers.write_probe kind ~seed ~snap:st.pristine
      ~wal_dir:(Filename.concat work "probe.wal")
      ~batches:(if kind = W.Plan_miss then 3 else 10)
      ~budget_s:3.
  in
  let queue = Stats.summarize (List.filter_map (fun s -> if s.Served.ok then s.Served.queue_ms else None) window) in
  let hits = delta "engine_plan_cache_hits_total" and misses = delta "engine_plan_cache_misses_total" in
  let kept = delta_final "engine_maintain_partitions_kept_total"
  and rebuilt = delta_final "engine_maintain_partitions_rebuilt_total" in
  let count x = float_of_int x in
  ( trace_ok,
    [ ("xserve.overhead_ms", served.Stats.p50 -. inproc.Stats.p50, "ms");
      ("xserve.queue_ms", queue.Stats.p50, "ms");
      ("xserve.batch_size", Stats.ratio (count (List.length window)) (delta "serve_batches_total"), "count");
      ("xserve.failed_ratio", failed_share, "ratio");
      ("xquery.parse_ms", per_req "xquery.parse", "ms");
      ("xquery.extract_ms", per_req "xquery.extract", "ms");
      ("xquery.tag_ms", per_req "xquery.tag", "ms");
      ("xengine.query_ms", inproc.Stats.p50, "ms");
      ("xengine.plan_hit_ratio", Stats.ratio hits (hits +. misses), "ratio");
      ("xengine.fallback_ratio", Stats.ratio (delta "engine_fallbacks_total") (delta "engine_queries_total"), "ratio");
      ("xengine.apply_ms", Stats.median wp.Layers.apply_ms, "ms");
      ("xengine.parts_rebuilt_ratio", Stats.ratio rebuilt (rebuilt +. kept), "ratio");
      ("xam.cache_key_ms", per_req "xam.cache_key", "ms");
      ("xam.rewrite_ms", per_req "xam.rewrite", "ms");
      ("xam.rewrite_candidates", Stats.ratio (count c.Layers.candidates) (count c.Layers.rewrites), "count");
      ("xam.embed_ms", per_req "xam.embed", "ms");
      ("xstorage.cost_ms", per_req "xstorage.cost", "ms");
      ("xstorage.prune_ms", per_req "xstorage.prune", "ms");
      ( "xstorage.partitions_pruned_ratio",
        Stats.ratio (count c.Layers.pruned) (count (c.Layers.scanned + c.Layers.pruned)),
        "ratio" );
      ("xalgebra.exec_ms", per_req "xalgebra.exec", "ms");
      ("xalgebra.tuples_per_result", Stats.ratio (count c.Layers.tuples) (count c.Layers.items), "ratio");
      ("xsummary.build_ms", Stats.mean wp.Layers.summary_ms, "ms");
      ("xdm.mutate_ms", Stats.median wp.Layers.mutate_ms, "ms");
      ("xwal.append_ms", Stats.median wp.Layers.append_ms, "ms");
      ("xwal.bytes_per_record", Stats.ratio (count wp.Layers.wal_bytes) (count wp.Layers.wal_records), "B");
      ("xwal.replay_records", count replayed, "count");
      ("xpersist.load_ms", Stats.median !loads, "ms");
      ("xpersist.save_ms", Stats.median st.save_ms, "ms");
      ("xpersist.reopen_ms", reopen_ms, "ms");
      ("xpersist.checkpoints", delta "serve_checkpoints_total", "count");
      ("trace.overhead_ratio", Stats.ratio total untraced_total -. 1., "ratio");
      ("trace.unattributed_share", unattributed, "ratio") ] )

let run ~workload ~kind ~seed ~seconds ~trace ~uload =
  let work = Printf.sprintf "%s/%s-%d" work_dir workload (Unix.getpid ()) in
  rm_rf work;
  mkdir_p work;
  Fun.protect ~finally:(fun () -> rm_rf work) @@ fun () ->
  let st = set_up kind ~uload ~work in
  let loads = ref [] in
  let open_engine () =
    let e, ms = Layers.time_ms (fun () -> E.of_snapshot st.pristine) in
    loads := ms :: !loads;
    e
  in
  let read_seq = W.read_sequence ~seed 100_000 in
  let gate_texts, lookups =
    match kind with
    | W.Read_hot | W.Write_mix -> (W.read_mix, [||])
    | W.Plan_miss ->
        let all = W.lookups st.doc ~seed in
        let g = W.lookup_round in
        (Array.sub all 0 g, Array.sub all g (Array.length all - g))
  in
  let expected = Array.of_list (gate st (open_engine ()) (Array.to_list gate_texts)) in
  log "answer gate: %d served answers match the in-process engine" (Array.length expected);
  let text_of idx =
    if kind = W.Plan_miss then lookups.(idx) else W.read_mix.(read_seq.(idx))
  in
  (* The measured window. *)
  let spec = W.write_spec kind st.doc ~seed in
  let acked = { inserts = []; updates = Hashtbl.create 64 } in
  let before = with_conn st.srv Served.scrape in
  let t_start = clock () in
  let until = t_start +. float_of_int seconds in
  let nonempty _ _ r = ((match Client.output r with Some s -> s <> "" | None -> false), 0) in
  let hot idx _ r = (Client.output r = Some expected.(read_seq.(idx)), 0) in
  let reader judge =
    let next = Served.cursor (Array.length read_seq) text_of in
    fun () ->
      Served.caller ~addr:st.srv.Served.addr ~until ~next ~send:Served.query_send ~judge
        ~apply:false
  in
  let callers =
    match kind with
    | W.Read_hot ->
        (* Two callers sharing one sequence. *)
        let r = reader hot in
        [ r; r ]
    | W.Plan_miss ->
        (* One caller: the server runs these misses one at a time, so a
           second caller only adds queue wait, quantized by the runtime's
           thread switches, and makes the median jump between modes. *)
        let next = Served.cursor (Array.length lookups) text_of in
        [ (fun () ->
            Served.caller ~addr:st.srv.Served.addr ~until ~next ~send:Served.query_send
              ~judge:nonempty ~apply:false) ]
    | W.Write_mix -> [ reader nonempty; writer st spec acked ~seed ~until ~limit:max_int ]
  in
  let window = Served.run_callers callers in
  if kind = W.Plan_miss && List.length window >= Array.length lookups then
    failwith "the lookup sequence ran out before the window closed";
  let elapsed = List.fold_left (fun a s -> Float.max a s.Served.done_at) until window -. t_start in
  let after = with_conn st.srv Served.scrape in
  (* Applies on an idle server, for the workloads without a writer. *)
  let idle =
    if kind = W.Write_mix then []
    else
      let limit, cap_s = idle_applies kind in
      writer st spec acked ~seed ~until:(clock () +. cap_s) ~limit ()
  in
  let final = with_conn st.srv Served.scrape in
  let rss = Served.peak_rss_mb st.srv in
  let code = Served.stop st.srv in
  if code <> 0 then failwith (Printf.sprintf "server drain exited %d" code);
  let durable, replayed, reopen_ms = check_durability st acked ~seed in
  (* Accounting. *)
  let all = window @ idle in
  let attempted = List.length all in
  let failed = List.length (List.filter (fun s -> not s.Served.ok) all) in
  let wrong = List.length (List.filter (fun s -> s.Served.wrong) all) in
  let queries = List.filter (fun s -> not s.Served.apply) window in
  let applies = List.filter (fun s -> s.Served.apply) all in
  let q = Stats.summarize (ok_ms queries) and a = Stats.summarize (ok_ms applies) in
  let records = List.fold_left (fun acc s -> acc + s.Served.records) 0 applies in
  let apply_s = if kind = W.Write_mix then elapsed else span_s idle in
  let failed_share = Stats.ratio (float_of_int failed) (float_of_int attempted) in
  Printf.printf "workload %s seed %d: %d requests attempted, %d failed (%d wrong answers)\n"
    workload seed attempted failed wrong;
  Printf.printf "query latency: p50 %.3f ms, p90 %.3f ms over %d samples\n" q.Stats.p50 q.Stats.p90 q.Stats.n;
  Printf.printf "apply latency: p50 %.3f ms, p90 %.3f ms over %d samples (%d records)\n"
    a.Stats.p50 a.Stats.p90 a.Stats.n records;
  let trace_ok, metrics =
    if not trace then
      let doc_bytes = String.length (Xdm.Xml_tree.serialize (Xdm.Doc.to_tree st.doc 0)) in
      ( true,
        [ ("setup_s", Stats.median st.setup_s, "s");
          ("query_p50_ms", q.Stats.p50, "ms");
          ("query_p90_ms", q.Stats.p90, "ms");
          ("query_ok_per_s", float_of_int (List.length (ok_ms queries)) /. elapsed, "1/s");
          ("apply_p50_ms", a.Stats.p50, "ms");
          ("apply_p90_ms", a.Stats.p90, "ms");
          ("apply_records_per_s", float_of_int records /. apply_s, "1/s");
          ("peak_rss_mb", rss, "MiB");
          ("store_bytes_per_doc_byte", float_of_int st.snap_bytes /. float_of_int doc_bytes, "ratio") ] )
    else
      per_layer kind st ~workload ~seed ~work ~open_engine ~loads ~queries ~text_of ~window
        ~delta:(Served.delta before after) ~delta_final:(Served.delta before final)
        ~failed_share ~replayed ~reopen_ms
  in
  let correct = durable && wrong = 0 && failed_share <= max_failed_share && trace_ok in
  (correct, attempted, failed, metrics)

let result_json ~correct ~attempted ~failed metrics =
  let open Xobs.Json in
  to_string
    (Obj
       [ ("correct", Bool correct);
         ("attempted", Num (float_of_int attempted));
         ("failed", Num (float_of_int failed));
         ( "metrics",
           Obj (List.map (fun (n, v, u) -> (n, Obj [ ("value", Num v); ("unit", Str u) ])) metrics) ) ])

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let uload = ref "" and self_only = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME read-hot | plan-miss | write-mix");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--uload", Arg.Set_string uload, "PATH the uload executable to serve with");
      ("--self-test", Arg.Set self_only, " run the benchmark's own tests and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --uload PATH";
  self_test ();
  if !self_only then (print_endline "self-test ok"; exit 0);
  let kind =
    match W.of_name !workload with
    | Some k -> k
    | None -> prerr_endline ("unknown workload: " ^ !workload); exit 2
  in
  if !uload = "" || !seconds < 1 then (prerr_endline "--uload and --seconds >= 1 are required"; exit 2);
  (* Never outlive the harness's limit: exiting runs the at_exit hook
     that kills any server still running. *)
  ignore
    (Thread.create
       (fun () ->
         Thread.delay watchdog_s;
         prerr_endline "benchmark: watchdog expired";
         exit 3)
       ());
  match
    run ~workload:!workload ~kind ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~uload:!uload
  with
  | correct, attempted, failed, metrics ->
      print_endline (result_json ~correct ~attempted ~failed metrics);
      exit (if correct then 0 else 1)
  | exception e ->
      prerr_endline ("benchmark failed: " ^ Printexc.to_string e);
      exit 1
