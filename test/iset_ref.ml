(* The sort-based interval algebra that [Intervals.Iset] replaced with
   linear merges and sweeps, kept as the differential oracle for it.  Every
   result goes through [Iset.of_intervals] (sort + coalesce), so each
   operation is correct by construction, at quadratic cost. *)

module Dy = Exact.Dyadic
module I = Intervals.Interval
module Is = Intervals.Iset

let union a b = Is.of_intervals (Is.intervals a @ Is.intervals b)

let inter a b =
  Is.of_intervals
    (List.concat_map
       (fun ia -> List.map (I.intersect ia) (Is.intervals b))
       (Is.intervals a))

let diff a b =
  let subtract_one iv cut =
    if not (I.overlaps iv cut) then [ iv ]
    else
      [ I.make (I.lo iv) (Dy.min (I.hi iv) (I.lo cut));
        I.make (Dy.max (I.lo iv) (I.hi cut)) (I.hi iv) ]
      |> List.filter (fun i -> not (I.is_empty i))
  in
  let rec sub_all iv cuts =
    match cuts with
    | [] -> [ iv ]
    | cut :: rest ->
        List.concat_map (fun piece -> sub_all piece rest) (subtract_one iv cut)
  in
  Is.of_intervals
    (List.concat_map (fun iv -> sub_all iv (Is.intervals b)) (Is.intervals a))

let subset a b = Is.is_empty (diff a b)

let canonical_partition s d =
  match Is.intervals s with
  | [] -> List.init d (fun _ -> Is.empty)
  | first :: rest ->
      let parts = List.map Is.of_interval (I.split first d) in
      let rec attach_rest = function
        | [] -> assert false
        | [ last ] -> [ union last (Is.of_intervals rest) ]
        | p :: ps -> p :: attach_rest ps
      in
      attach_rest parts
