(* Exact order statistics over kept samples. Every end-to-end latency the
   benchmark prints comes from here: samples are never bucketed. *)

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p]% of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if p <= 0. then sorted.(0)
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

type summary = { n : int; p50 : float; p90 : float }

let summarize xs =
  let a = sorted_of_list xs in
  { n = Array.length a; p50 = percentile a 50.; p90 = percentile a 90. }

(* The median of a small set of repeated measurements (set-up times,
   load times): the mean of the middle pair when the count is even. *)
let median xs =
  let a = sorted_of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* A ratio whose base may be empty: 0 when nothing was attempted. *)
let ratio num den = if den = 0. then 0. else num /. den
