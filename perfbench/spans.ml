(* In-memory spans recorded by the benchmark around its calls into the
   libraries. A span has a name, a start and an end (milliseconds from
   the recorder's origin), its parent span and the index of the request
   it belongs to. Spans are kept in memory and written out as JSONL when
   the traced replay ends. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  req : int;
  start_ms : float;
  mutable end_ms : float;
  mutable child_ms : float;  (* summed duration of direct children *)
}

type t = {
  clock : unit -> float;
  origin : float;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable stack : span list;  (* open spans, innermost first *)
}

let create () =
  let clock = Xobs.Clock.monotonic in
  { clock; origin = clock (); spans = []; next_id = 0; stack = [] }

let now_ms t = (t.clock () -. t.origin) *. 1000.

(* Run [f] inside a span named [name], child of the innermost open span.
   The span closes however [f] returns. *)
let with_span t ~req name f =
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  let sp =
    { id = t.next_id; name; req; start_ms = now_ms t; end_ms = nan;
      child_ms = 0.; parent = Option.map (fun p -> p.id) parent }
  in
  t.next_id <- t.next_id + 1;
  t.spans <- sp :: t.spans;
  t.stack <- sp :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      sp.end_ms <- now_ms t;
      t.stack <- List.tl t.stack;
      Option.iter (fun p -> p.child_ms <- p.child_ms +. (sp.end_ms -. sp.start_ms)) parent)
    f

let spans t = List.rev t.spans
let duration sp = sp.end_ms -. sp.start_ms

(* Self time: the span's duration minus the part its direct children
   cover. Children of one span never overlap (the replay is sequential). *)
let self_ms sp = duration sp -. sp.child_ms

(* Total self time per span name, in first-seen order. *)
let self_table t =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun sp ->
      if not (Hashtbl.mem tbl sp.name) then order := sp.name :: !order;
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl sp.name) in
      Hashtbl.replace tbl sp.name (prev +. self_ms sp))
    (spans t);
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

(* Summed duration of the root spans (one per replayed request). *)
let root_total t =
  List.fold_left
    (fun acc sp -> if sp.parent = None then acc +. duration sp else acc)
    0. t.spans

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun sp ->
          let open Xobs.Json in
          output_string oc
            (to_string
               (Obj
                  [ ("id", Num (float_of_int sp.id));
                    ("name", Str sp.name);
                    ("start_ms", Num sp.start_ms);
                    ("end_ms", Num sp.end_ms);
                    ("parent", match sp.parent with Some p -> Num (float_of_int p) | None -> Null);
                    ("req", Num (float_of_int sp.req)) ]));
          output_char oc '\n')
        (spans t))
