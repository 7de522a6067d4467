module Dy = Exact.Dyadic
module I = Interval

(* Normal form: sorted by lower endpoint; intervals non-empty, pairwise
   disjoint and non-adjacent (no [a,b) [b,c) pairs). *)
type t = I.t list

let empty : t = []
let unit : t = [ I.unit ]

let intervals s = s
let count = List.length
let is_empty s = s = []

(* Coalesce a sorted list of possibly overlapping/adjacent intervals. *)
let coalesce sorted =
  let rec go acc = function
    | [] -> List.rev acc
    | iv :: rest -> (
        match acc with
        | prev :: acc' when I.touches prev iv ->
            let merged = I.make (Dy.min (I.lo prev) (I.lo iv)) (Dy.max (I.hi prev) (I.hi iv)) in
            go (merged :: acc') rest
        | _ -> go (iv :: acc) rest)
  in
  go [] sorted

let of_intervals ivs =
  ivs |> List.filter (fun iv -> not (I.is_empty iv)) |> List.sort I.compare |> coalesce

let of_interval iv = of_intervals [ iv ]

let interval lo hi = of_interval (I.make lo hi)

let equal a b = List.equal I.equal a b

let compare a b = List.compare I.compare a b

let measure s = Dy.sum (List.map I.measure s)

let mem x s = List.exists (I.mem x) s

let union a b =
  match (a, b) with
  | [], s | s, [] -> s
  | _ ->
      (* Two-pointer merge of the sorted normal forms, then coalesce. *)
      let rec merge acc a b =
        match (a, b) with
        | [], rest | rest, [] -> List.rev_append acc rest
        | ia :: ra, ib :: rb ->
            if I.compare ia ib <= 0 then merge (ia :: acc) ra b
            else merge (ib :: acc) a rb
      in
      coalesce (merge [] a b)

let inter a b =
  (* Two-pointer sweep over the sorted normal forms. *)
  let rec go acc a b =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | ia :: ra, ib :: rb ->
        let m = I.intersect ia ib in
        let acc = if I.is_empty m then acc else m :: acc in
        if Dy.compare (I.hi ia) (I.hi ib) <= 0 then go acc ra b else go acc a rb
  in
  go [] a b

let diff a b =
  (* One sweep: [cur] is what is left of the current interval of [a]; a cut
     of [b] emits the piece left of it and carries the piece right of it.
     Pieces are separated by non-empty cuts or by gaps of [a], so the output
     is already in normal form. *)
  let rec next acc a b =
    match a with [] -> List.rev acc | cur :: ra -> sweep acc cur ra b
  and sweep acc cur ra b =
    match b with
    | [] -> List.rev_append acc (cur :: ra)
    | cut :: rb ->
        if Dy.compare (I.hi cut) (I.lo cur) <= 0 then sweep acc cur ra rb
        else if Dy.compare (I.hi cur) (I.lo cut) <= 0 then next (cur :: acc) ra b
        else begin
          let acc =
            if Dy.compare (I.lo cur) (I.lo cut) < 0 then
              I.make (I.lo cur) (I.lo cut) :: acc
            else acc
          in
          if Dy.compare (I.hi cut) (I.hi cur) < 0 then
            sweep acc (I.make (I.hi cut) (I.hi cur)) ra rb
          else next acc ra b
        end
  in
  match b with [] -> a | _ -> next [] a b

let subset a b = is_empty (diff a b)
let disjoint a b = is_empty (inter a b)

let complement s = diff unit s

let is_unit s = equal s unit

let first_interval = function [] -> None | iv :: _ -> Some iv

let canonical_partition s d =
  if d < 1 then invalid_arg "Iset.canonical_partition: d must be >= 1";
  match s with
  | [] -> List.init d (fun _ -> empty)
  | first :: rest ->
      let slices = I.split first d in
      let parts = List.map of_interval slices in
      let rec attach_rest = function
        | [] -> assert false
        | [ last ] -> [ union last rest ]
        | p :: ps -> p :: attach_rest ps
      in
      attach_rest parts

let write w s =
  Bitio.Codes.write_gamma0 w (count s);
  List.iter (I.write w) s

let read r =
  let n = Bitio.Codes.read_gamma0 r in
  (* Explicit recursion: List.init does not guarantee evaluation order. *)
  let rec go acc k = if k = 0 then List.rev acc else go (I.read r :: acc) (k - 1) in
  of_intervals (go [] n)

let size_bits s =
  Bitio.Codes.gamma0_size (count s)
  + List.fold_left (fun acc iv -> acc + I.size_bits iv) 0 s

let max_endpoint_bits s =
  List.fold_left
    (fun acc iv -> max acc (max (Dy.bit_size (I.lo iv)) (Dy.bit_size (I.hi iv))))
    0 s

let to_string s =
  if is_empty s then "{}"
  else String.concat " u " (List.map I.to_string s)

let pp fmt s = Format.pp_print_string fmt (to_string s)
