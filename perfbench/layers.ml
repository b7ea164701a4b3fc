(* In-process replays for the per-layer numbers. Nothing here changes the
   libraries: the benchmark calls each layer's public functions itself,
   in the order the engine does, and records a span around every call. *)

module E = Xengine.Engine
module Rel = Xalgebra.Rel
module Physical = Xalgebra.Physical
module Store = Xstorage.Store
module Pattern = Xam.Pattern

let clock = Xobs.Clock.monotonic

let time_ms f =
  let t0 = clock () in
  let r = f () in
  (r, (clock () -. t0) *. 1000.)

(* The untraced reference: one Engine.query_string_r call, its output
   and its time. *)
let engine_query engine text =
  match time_ms (fun () -> E.query_string_r engine text) with
  | Ok r, ms -> (r.E.output, ms)
  | Error e, _ -> failwith ("in-process query failed: " ^ Xengine.Xerror.to_string e)

(* --- The decomposed, traced replay -------------------------------------- *)

type counts = {
  mutable rewrites : int;
  mutable candidates : int;
  mutable scanned : int;
  mutable pruned : int;
  mutable tuples : int;  (** tuples produced by all operators of pattern plans *)
  mutable items : int;  (** result items of the tagging plans *)
  mutable mismatches : int;  (** outputs differing from the engine's *)
}

let rec op_tuples (st : Physical.op_stats) =
  List.fold_left (fun acc c -> acc + op_tuples c) st.Physical.tuples st.Physical.children

(* A rewritten extent carries provider column names; the tagging plan
   addresses the pattern's own columns. Rename positionally, as the
   engine does. *)
let normalize_schema pattern (rel : Rel.t) =
  let expected =
    List.concat_map
      (fun (n : Pattern.node) ->
        List.map (fun a -> Pattern.attr_col n.Pattern.nid a) (Pattern.stored_attrs n))
      (Pattern.return_nodes pattern)
  in
  if
    List.length expected = List.length rel.Rel.schema
    && List.for_all (fun (c : Rel.column) -> c.Rel.ctype = Rel.Atom) rel.Rel.schema
  then { rel with Rel.schema = List.map Rel.atom expected }
  else rel

let partition_dirs catalog name =
  List.find_map
    (fun (m : Store.module_) ->
      if String.equal m.Store.name name then
        Option.map (fun (p : Store.parts) -> (p.Store.pt_nid, Store.partition_paths p)) m.Store.parts
      else None)
    catalog.Store.modules

let pruned_env catalog base overrides =
  if overrides = [] then base
  else
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (m : Store.module_) ->
        match List.assoc_opt m.Store.name overrides with
        | Some allowed -> Hashtbl.replace tbl m.Store.name (Store.pruned_extent m ~allowed)
        | None -> ())
      catalog.Store.modules;
    fun name -> match Hashtbl.find_opt tbl name with Some r -> Some r | None -> base name

let render (rel : Rel.t) =
  let buf = Buffer.create 256 in
  List.iter
    (fun (tu : Rel.tuple) ->
      match tu.(0) with
      | Rel.A (Xalgebra.Value.Str s) -> Buffer.add_string buf s
      | Rel.A v -> Buffer.add_string buf (Xalgebra.Value.to_display v)
      | Rel.N _ -> ())
    rel.Rel.tuples;
  Buffer.contents buf

(* Replay [texts] through parse → extract → per pattern (plan cache
   probe, rewrite + cost on a miss, partition pruning, execution, or the
   base-document fallback) → tagging, against a fresh plan cache, with a
   span around each call. [expected] holds the engine's outputs for the
   same requests; each differing output is counted. *)
let decomposed ~spans engine texts ~expected =
  let doc = Option.get (E.document engine) in
  let catalog = E.catalog engine in
  let summary = E.summary engine in
  let views = Store.views catalog in
  let base_env = E.env engine in
  let cache = Hashtbl.create 64 in
  let c =
    { rewrites = 0; candidates = 0; scanned = 0; pruned = 0;
      tuples = 0; items = 0; mismatches = 0 }
  in
  let sp ~req name f = Spans.with_span spans ~req name f in
  List.iteri
    (fun req (text, want) ->
      let out =
        sp ~req "request" (fun () ->
            let ast = sp ~req "xquery.parse" (fun () -> Xquery.Parse.query text) in
            let ex = sp ~req "xquery.extract" (fun () -> Xquery.Extract.extract ast) in
            let bound =
              List.mapi
                (fun i pat ->
                  let key =
                    sp ~req "xam.cache_key" (fun () -> Xam.Canonical.cache_key summary pat)
                  in
                  let choice =
                    match Hashtbl.find_opt cache key with
                    | Some ch -> ch
                    | None ->
                        let rws =
                          sp ~req "xam.rewrite" (fun () ->
                              Xam.Rewrite.rewrite summary ~query:pat ~views)
                        in
                        c.rewrites <- c.rewrites + 1;
                        c.candidates <- c.candidates + List.length rws;
                        let ch =
                          sp ~req "xstorage.cost" (fun () -> Xstorage.Cost.choose_with_cost base_env rws)
                        in
                        Hashtbl.add cache key ch;
                        ch
                  in
                  let rel =
                    match choice with
                    | Some (r, _) ->
                        let env =
                          sp ~req "xstorage.prune" (fun () ->
                              let overrides, scanned, pruned =
                                Store.plan_pruning ~views_used:r.Xam.Rewrite.views_used
                                  ~parts_of:(partition_dirs catalog)
                                  ~scan_paths:r.Xam.Rewrite.scan_paths
                              in
                              c.scanned <- c.scanned + scanned;
                              c.pruned <- c.pruned + pruned;
                              pruned_env catalog base_env overrides)
                        in
                        let rel, stats =
                          sp ~req "xalgebra.exec" (fun () ->
                              Physical.run_instrumented ~clock env r.Xam.Rewrite.plan)
                        in
                        c.tuples <- c.tuples + op_tuples stats;
                        normalize_schema pat rel
                    | None -> sp ~req "xam.embed" (fun () -> Xam.Embed.eval doc pat)
                  in
                  (Xquery.Translate.scan_name i, rel))
                ex.Xquery.Extract.patterns
            in
            sp ~req "xquery.tag" (fun () ->
                let rel, _ =
                  Physical.run_instrumented ~clock (Xalgebra.Eval.env_of_list bound)
                    (Xquery.Translate.plan ex)
                in
                c.items <- c.items + List.length rel.Rel.tuples;
                render rel))
      in
      if out <> want then c.mismatches <- c.mismatches + 1)
    (List.combine texts expected);
  c

(* --- Write-path probes ---------------------------------------------------- *)

type writes = {
  apply_ms : float list;  (** Engine.apply_batch_r per batch, no WAL *)
  mutate_ms : float list;  (** Doc.insert_subtree / update_value per op *)
  summary_ms : float list;  (** Summary.build at the start and end size *)
  append_ms : float list;  (** Wal.Writer.append per record, fsync'd *)
  wal_bytes : int;
  wal_records : int;
}

(* Apply up to [batches] write batches (within [budget_s]) to a fresh
   engine opened from [snap], timing each layer of the write path on the
   side; then append every op to a scratch WAL with fsync. *)
let write_probe kind ~seed ~snap ~wal_dir ~batches ~budget_s =
  let engine = E.of_snapshot snap in
  let rng = Random.State.make [| seed; 3 |] in
  let build doc =
    Stats.median (List.init 3 (fun _ -> snd (time_ms (fun () -> Xsummary.Summary.build doc))))
  in
  let start_build = build (Option.get (E.document engine)) in
  let give_up = clock () +. budget_s in
  let rec go k acc =
    if k >= batches || (k > 0 && clock () > give_up) then List.rev acc
    else begin
      let doc = Option.get (E.document engine) in
      let spec = Workloads.write_spec kind doc ~seed in
      let ops, (node, value) = Workloads.batch spec ~seed ~rng k in
      let tree = Xdm.Xml_tree.parse (spec.Workloads.entry k) in
      let doc', ins_ms =
        time_ms (fun () -> Xdm.Doc.insert_subtree doc ~parent:spec.Workloads.container tree)
      in
      let _, upd_ms = time_ms (fun () -> Xdm.Doc.update_value doc' node value) in
      let report, ms = time_ms (fun () -> E.apply_batch_r engine ops) in
      match report with
      | Error e -> failwith ("in-process apply failed: " ^ Xengine.Xerror.to_string e)
      | Ok _ -> go (k + 1) ((ops, ms, [ ins_ms; upd_ms ]) :: acc)
    end
  in
  let done_ = go 0 [] in
  let end_build = build (Option.get (E.document engine)) in
  let w =
    match Xwal.Wal.Writer.open_ ~sync:true ~dir:wal_dir ~lsn:0 () with
    | Ok w -> w
    | Error m -> failwith ("wal open: " ^ m)
  in
  let appended =
    Fun.protect
      ~finally:(fun () -> Xwal.Wal.Writer.close w)
      (fun () ->
        List.concat_map
          (fun (ops, _, _) ->
            List.map
              (fun op ->
                match time_ms (fun () -> Xwal.Wal.Writer.append w op) with
                | Ok (_, bytes), ms -> (ms, bytes)
                | Error m, _ -> failwith ("wal append: " ^ m))
              ops)
          done_)
  in
  { apply_ms = List.map (fun (_, ms, _) -> ms) done_;
    mutate_ms = List.concat_map (fun (_, _, m) -> m) done_;
    summary_ms = [ start_build; end_build ];
    append_ms = List.map fst appended;
    wal_bytes = List.fold_left (fun a (_, b) -> a + b) 0 appended;
    wal_records = List.length appended }
