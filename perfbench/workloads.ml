(* The three workloads: their documents, query texts and write batches.
   Everything here is a pure function of the seed. *)

module Doc = Xdm.Doc

type kind = Read_hot | Plan_miss | Write_mix

let of_name = function
  | "read-hot" -> Some Read_hot
  | "plan-miss" -> Some Plan_miss
  | "write-mix" -> Some Write_mix
  | _ -> None

(* Document shapes. The bib document (~6k nodes) keeps in-process engine
   time a substantial share of a served read; the XMark document at its
   default scale has ~540 summary paths, so the path-partitioned catalog
   holds ~335 modules and a plan-cache miss is dominated by rewriting. *)
let bib_books = 550
let bib_theses = 150

(* The documents are fixed fixtures: the generators' seed changes the
   XMark summary (and so the cost of every rewriting) enough to move a
   run's median by a quarter, which would drown any change under test.
   The benchmark's seed varies the request stream instead. *)
let doc_seed = 7

let generate kind =
  match kind with
  | Read_hot | Write_mix ->
      Xworkload.Gen_bib.generate_doc ~seed:doc_seed ~books:bib_books ~theses:bib_theses ()
  | Plan_miss -> Xworkload.Gen_xmark.generate_doc ~seed:doc_seed Xworkload.Gen_xmark.default

(* The read mix: three nested-return queries, which no path-partitioned
   catalog can rewrite (they fall back to evaluating the pattern over the
   base document), and four join-form queries, which the rewriter answers
   from path partitions. *)
let read_mix =
  [| {|for $b in doc("bib")//book return <t>{$b/title/text()}</t>|};
     {|for $t in doc("bib")//phdthesis return <a>{$t/author/text()}</a>|};
     {|for $b in doc("bib")//book[@year > 2000] return <t>{$b/title/text()}</t>|};
     {|for $b in doc("bib")//book, $t in $b/title return <t>{$t/text()}</t>|};
     {|for $b in doc("bib")//book, $t in $b/title where $b/@year > 2000 return <t>{$t/text()}</t>|};
     {|for $p in doc("bib")//phdthesis, $a in $p/author return <a>{$a/text()}</a>|};
     {|for $p in doc("bib")//phdthesis, $t in $p/title return <t>{$t/text()}</t>|} |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Mixes come in rounds that hold each template once, so every prefix of
   whole rounds has the same template mix. Each template's latencies
   form a cluster; with an odd number of templates the median falls
   inside the middle cluster rather than on the gap between two, where
   run-to-run jitter would move it from one cluster to the other. *)

(* A seeded sequence of read-mix indices, one per request, in rounds of
   a fresh permutation of the mix. *)
let read_sequence ~seed rounds =
  let rng = Random.State.make [| seed; 1 |] in
  let k = Array.length read_mix in
  Array.concat
    (List.init rounds (fun _ ->
         let r = Array.init k Fun.id in
         shuffle rng r;
         r))

(* Distinct text values of [label] elements whose parent is labelled
   [parent], in document order. *)
let texts doc ~parent ~label =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun n ->
      if Doc.label doc (Doc.parent doc n) <> parent then None
      else
        match
          List.find_opt (fun c -> Doc.kind doc c = Doc.Text) (Doc.children doc n)
        with
        | Some c ->
            let v = Doc.value doc c in
            if Hashtbl.mem seen v || String.contains v '"' then None
            else (
              Hashtbl.add seen v ();
              Some v)
        | None -> None)
    (Doc.nodes_with_label doc label)

(* Parametrized plan-miss lookups: (template, constant source). Every
   constant is a value of the document, so every answer is non-empty.
   The last template has a nested return and falls back to the base
   document after its (failed) rewriting. No //item template: those cost
   seconds per miss. Every template has dozens of distinct constants. *)
let lookup_templates =
  [ ( ("person", "emailaddress"),
      Printf.sprintf
        {|for $p in doc("x")//person, $n in $p/name, $e in $p/emailaddress where $e = "%s" return <n>{$n/text()}</n>|} );
    ( ("person", "name"),
      Printf.sprintf
        {|for $p in doc("x")//person, $n in $p/name, $e in $p/emailaddress where $n = "%s" return <e>{$e/text()}</e>|} );
    ( ("closed_auction", "price"),
      Printf.sprintf
        {|for $a in doc("x")//closed_auction, $p in $a/price, $d in $a/date where $p = "%s" return <d>{$d/text()}</d>|} );
    ( ("person", "homepage"),
      Printf.sprintf
        {|for $p in doc("x")//person, $n in $p/name, $h in $p/homepage where $h = "%s" return <n>{$n/text()}</n>|} );
    ( ("person", "emailaddress"),
      Printf.sprintf
        {|for $p in doc("x")//person where $p/emailaddress = "%s" return <n>{$p/name/text()}</n>|} ) ]

(* The lookups in rounds: round [r] holds each template once, with its
   [r]-th constant in seeded order. No query text repeats, so every
   request misses the plan cache. The sequence ends with the scarcest
   template's constants. *)
let lookups doc ~seed =
  let rng = Random.State.make [| seed; 2 |] in
  let columns =
    List.map
      (fun ((parent, label), mk) ->
        let a = Array.of_list (List.map mk (texts doc ~parent ~label)) in
        shuffle rng a;
        a)
      lookup_templates
  in
  let rounds = List.fold_left (fun m a -> min m (Array.length a)) max_int columns in
  Array.concat (List.init rounds (fun r -> Array.of_list (List.map (fun a -> a.(r)) columns)))

let lookup_round = List.length lookup_templates

(* The readiness probe: a path absent from every document, so the first
   200 means the tenant is open, and the plan it caches is one no
   workload query uses. *)
let probe_query = {|doc("d")/perfbench-ready|}

(* --- Writes ------------------------------------------------------------

   A batch appends one new entry as the last child of [container] and
   overwrites the text of one existing node that precedes the insertion
   point, so neither op shifts the handle of an earlier node and handles
   taken from the initial document stay valid across batches. *)

type write_spec = {
  container : int;
  entry : int -> string;  (** the k-th appended subtree *)
  targets : int array;  (** text handles an update may overwrite *)
}

let text_children doc label ~before =
  List.filter_map
    (fun n ->
      List.find_opt
        (fun c -> Doc.kind doc c = Doc.Text && c < before)
        (Doc.children doc n))
    (Doc.nodes_with_label doc label)

let write_spec kind doc ~seed =
  let container, entry, label =
    match kind with
    | Read_hot | Write_mix ->
        ( Doc.root doc,
          (fun k ->
            Printf.sprintf
              {|<book year="2024"><title>pb-ins-%d-%d</title><author>Writer</author></book>|}
              seed k),
          "title" )
    | Plan_miss ->
        ( List.hd (Doc.nodes_with_label doc "people"),
          (fun k ->
            Printf.sprintf
              {|<person id="pb%d"><name>pb-ins-%d-%d</name><emailaddress>mailto:pb%d@bench</emailaddress></person>|}
              k seed k k),
          "name" )
  in
  let before = Doc.subtree_end doc container in
  { container; entry; targets = Array.of_list (text_children doc label ~before) }

let inserted_value ~seed k = Printf.sprintf "pb-ins-%d-%d" seed k
let updated_value ~seed k = Printf.sprintf "pb-upd-%d-%d" seed k

(* Batch [k]: the insert and the update, with the update's target drawn
   from [rng]. Returns the ops and the (handle, value) the update sets. *)
let batch spec ~seed ~rng k =
  let node = spec.targets.(Random.State.int rng (Array.length spec.targets)) in
  let value = updated_value ~seed k in
  ( [ Xengine.Engine.Insert_subtree
        { parent = spec.container; before = None; xml = spec.entry k };
      Xengine.Engine.Update_value { node; value } ],
    (node, value) )
