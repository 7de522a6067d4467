(* Shared test utilities: QCheck generators for the numeric kernel and the
   interval machinery, Alcotest testables, and graph-family samplers. *)

module B = Bignat
module Q = Exact.Rational
module Dy = Exact.Dyadic
module I = Intervals.Interval
module Is = Intervals.Iset

let qcheck_to_alcotest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* {1 Alcotest testables} *)

let bignat = Alcotest.testable B.pp B.equal
let rational = Alcotest.testable Q.pp Q.equal
let dyadic = Alcotest.testable Dy.pp Dy.equal
let interval = Alcotest.testable I.pp I.equal
let iset = Alcotest.testable Is.pp Is.equal

let outcome_string (o : Runtime.Engine.outcome) =
  match o with
  | Runtime.Engine.Terminated -> "terminated"
  | Runtime.Engine.Quiescent -> "quiescent"
  | Runtime.Engine.Step_limit -> "step-limit"
  | Runtime.Engine.Cancelled -> "cancelled"

let outcome =
  let pp fmt o = Format.pp_print_string fmt (outcome_string o) in
  Alcotest.testable pp ( = )

(* One-line run report for assertion messages: outcome, deliveries, what is
   still in flight (starvation vs true quiescence), and the fault counters. *)
let report_summary (r : _ Runtime.Engine.report) =
  let f = r.Runtime.Engine.fault_stats in
  Printf.sprintf
    "%s after %d deliveries (in-flight %d; dropped %d, extra %d, delayed %d, \
     corrupted %d, garbled %d, dead edges %d)"
    (outcome_string r.Runtime.Engine.outcome)
    r.Runtime.Engine.deliveries r.Runtime.Engine.final_in_flight
    f.Runtime.Engine.dropped_copies f.Runtime.Engine.extra_copies
    f.Runtime.Engine.delayed_copies f.Runtime.Engine.corrupted_deliveries
    f.Runtime.Engine.garbled_drops
    (List.length f.Runtime.Engine.dead_edges)

(* Byte-identity gate: every report field of a pinned run, on each
   [(engine name, report)] given. *)
let check_report_pinned ~deliveries ~total_bits ~max_edge_bits ~max_message_bits
    ~distinct_messages ~max_state_bits runs =
  List.iter
    (fun (engine, (r : _ Runtime.Engine.report)) ->
      let check what = Alcotest.(check int) (engine ^ ": " ^ what) in
      Alcotest.check outcome (engine ^ ": outcome") Runtime.Engine.Terminated
        r.Runtime.Engine.outcome;
      Alcotest.(check bool) (engine ^ ": all visited") true
        (Array.for_all Fun.id r.Runtime.Engine.visited);
      check "deliveries" deliveries r.Runtime.Engine.deliveries;
      check "total bits" total_bits r.Runtime.Engine.total_bits;
      check "busiest edge" max_edge_bits r.Runtime.Engine.max_edge_bits;
      check "largest message" max_message_bits r.Runtime.Engine.max_message_bits;
      check "distinct symbols" distinct_messages r.Runtime.Engine.distinct_messages;
      check "max state bits" max_state_bits r.Runtime.Engine.max_state_bits)
    runs

let graph_of_spec spec =
  match Digraph.Families.of_spec spec with Ok g -> g | Error e -> Alcotest.fail e

(* {1 QCheck generators} *)

let gen_bignat : B.t QCheck.Gen.t =
  QCheck.Gen.(
    let small = map B.of_int (int_bound 1_000_000) in
    let big =
      map
        (fun limbs ->
          List.fold_left
            (fun acc l -> B.add (B.shift_left acc 30) (B.of_int l))
            B.zero limbs)
        (list_size (int_range 1 6) (int_bound ((1 lsl 30) - 1)))
    in
    oneof [ small; big ])

let arb_bignat = QCheck.make ~print:B.to_string gen_bignat

let gen_small_nat = QCheck.Gen.int_bound 100_000
let arb_small_nat = QCheck.make ~print:string_of_int gen_small_nat

let gen_rational : Q.t QCheck.Gen.t =
  QCheck.Gen.(
    map3
      (fun negative num den -> Q.make ~negative num (B.succ den))
      bool gen_bignat gen_bignat)

let arb_rational = QCheck.make ~print:Q.to_string gen_rational

let gen_dyadic : Dy.t QCheck.Gen.t =
  QCheck.Gen.(
    map3 (fun negative m e -> Dy.make ~negative m e) bool gen_bignat (int_bound 48))

let arb_dyadic = QCheck.make ~print:Dy.to_string gen_dyadic

(* A dyadic in [0, 1), endpoint-like. *)
let gen_unit_dyadic : Dy.t QCheck.Gen.t =
  QCheck.Gen.(
    map2
      (fun e m_raw ->
        let e = 1 + e in
        let m = m_raw mod (1 lsl e) in
        Dy.make (B.of_int m) e)
      (int_bound 19) (int_bound ((1 lsl 20) - 1)))

let arb_unit_dyadic = QCheck.make ~print:Dy.to_string gen_unit_dyadic

let gen_interval : I.t QCheck.Gen.t =
  QCheck.Gen.(map2 I.make gen_unit_dyadic gen_unit_dyadic)

let arb_interval = QCheck.make ~print:I.to_string gen_interval

let gen_iset : Is.t QCheck.Gen.t =
  QCheck.Gen.(map Is.of_intervals (list_size (int_range 0 8) gen_interval))

let arb_iset = QCheck.make ~print:Is.to_string gen_iset

(* Wide endpoints: exponents up to 200 and mantissas over several 30-bit
   limbs, so comparisons take the multi-limb path.  Three kinds are mixed:
   uniform wide values; coarse multiples of 1/16, which coincide across
   sets (shared and adjacent endpoints); and a coarse value nudged by a
   tiny power of two, which agrees with it on every limb but the last. *)
let gen_wide_unit_dyadic : Dy.t QCheck.Gen.t =
  QCheck.Gen.(
    let limb = int_bound ((1 lsl 30) - 1) in
    let uniform =
      int_range 1 200 >>= fun e ->
      list_repeat ((e + 29) / 30) limb >|= fun limbs ->
      let m =
        List.fold_left
          (fun acc l -> B.add (B.shift_left acc 30) (B.of_int l))
          B.zero limbs
      in
      Dy.make (B.rem m (B.pow2 e)) e
    in
    let coarse = map (fun k -> Dy.make (B.of_int k) 4) (int_bound 15) in
    let nudged =
      map3
        (fun k e up ->
          let tiny = Dy.pow2 (-e) in
          if up then Dy.add (Dy.make (B.of_int k) 4) tiny
          else Dy.sub (Dy.make (B.of_int (k + 1)) 4) tiny)
        (int_bound 15) (int_range 100 200) bool
    in
    frequency [ (2, uniform); (1, coarse); (1, nudged) ])

let arb_wide_unit_dyadic = QCheck.make ~print:Dy.to_string gen_wide_unit_dyadic

(* Up to ~40 intervals: consecutive pairs of sorted distinct wide points,
   each kept with probability 1/2. *)
let gen_wide_iset : Is.t QCheck.Gen.t =
  QCheck.Gen.(
    list_size (int_range 0 80) (pair gen_wide_unit_dyadic bool) >|= fun points ->
    let points = List.sort_uniq (fun (x, _) (y, _) -> Dy.compare x y) points in
    let rec pairs = function
      | (lo, keep) :: ((hi, _) :: _ as rest) ->
          if keep then I.make lo hi :: pairs rest else pairs rest
      | _ -> []
    in
    Is.of_intervals (pairs points))

let arb_wide_iset = QCheck.make ~print:Is.to_string gen_wide_iset

(* {2 The int/Bignat boundary of Dyadic}

   [Exact.Dyadic] stores a mantissa of at most [Dy.int_bits] (61) bits as a
   machine int and a wider one as a [Bignat].  These generators straddle
   that limit: mantissas of 55-68 bits (and the exact neighbours of 2^61),
   halves of 28-34 bits whose products land on either side, and small
   mantissas (and zero) that cross it when shifted by an exponent gap of
   55-70. *)

(* An odd mantissa of exactly [bits >= 1] bits. *)
let gen_mantissa_of_bits bits : B.t QCheck.Gen.t =
  QCheck.Gen.(
    list_repeat 3 (int_bound ((1 lsl 30) - 1)) >|= fun limbs ->
    let r =
      List.fold_left (fun acc l -> B.add (B.shift_left acc 30) (B.of_int l)) B.zero limbs
    in
    if bits = 1 then B.one
    else
      B.add (B.pow2 (bits - 1))
        (B.add (B.shift_left (B.rem r (B.pow2 (bits - 2))) 1) B.one))

let gen_boundary_mantissa : B.t QCheck.Gen.t =
  QCheck.Gen.(
    let near_limit =
      oneofl
        [
          B.pred (B.pow2 61); B.pow2 61; B.succ (B.pow2 61); B.pow2 60;
          B.pred (B.pow2 62); B.pow2 62;
        ]
    in
    frequency
      [
        (4, int_range 55 68 >>= gen_mantissa_of_bits);
        (2, int_range 28 34 >>= gen_mantissa_of_bits);
        (2, int_range 1 20 >>= gen_mantissa_of_bits);
        (1, near_limit);
        (1, return B.zero);
      ])

let gen_boundary_dyadic : Dy.t QCheck.Gen.t =
  QCheck.Gen.(
    map3 (fun negative m e -> Dy.make ~negative m e) bool gen_boundary_mantissa
      (int_bound 12))

let arb_boundary_dyadic = QCheck.make ~print:Dy.to_string gen_boundary_dyadic

(* Pairs: exponents 55-70 apart (either way round), equal exponents (sums
   of two wide mantissas cross 2^61 upward), and a value against itself
   nudged by a power of two (differences cross it downward). *)
let gen_boundary_pair : (Dy.t * Dy.t) QCheck.Gen.t =
  QCheck.Gen.(
    let side = pair bool gen_boundary_mantissa in
    let gapped =
      map3
        (fun ((n1, m1), (n2, m2)) (e, gap) swap ->
          let x = Dy.make ~negative:n1 m1 e
          and y = Dy.make ~negative:n2 m2 (e + gap) in
          if swap then (y, x) else (x, y))
        (pair side side) (pair (int_bound 8) (int_range 55 70)) bool
    in
    let level =
      map3
        (fun (n1, m1) (n2, m2) e ->
          (Dy.make ~negative:n1 m1 e, Dy.make ~negative:n2 m2 e))
        side side (int_bound 8)
    in
    let nudged =
      map3
        (fun x k up -> (x, (if up then Dy.add else Dy.sub) x (Dy.pow2 (-k))))
        gen_boundary_dyadic (int_range 0 70) bool
    in
    frequency [ (2, gapped); (1, level); (1, nudged) ])

let arb_boundary_pair =
  QCheck.make ~print:QCheck.Print.(pair Dy.to_string Dy.to_string) gen_boundary_pair

(* [(x, y)] with [x] an int-form value and [x + y] beyond the int range:
   [y]'s odd mantissa sits [gap] bits below [x]'s, and the gap is wide
   enough that the aligned sum needs more than 61 bits. *)
let gen_crossing_pair : (Dy.t * Dy.t) QCheck.Gen.t =
  QCheck.Gen.(
    int_range 55 61 >>= fun w ->
    map3
      (fun (negative, m1) m2 (e, gap) ->
        let gap = Stdlib.max gap (62 - w) in
        (Dy.make ~negative m1 (e + 1), Dy.make ~negative m2 (e + 1 + gap)))
      (pair bool (gen_mantissa_of_bits w))
      (int_range 1 68 >>= gen_mantissa_of_bits)
      (pair (int_bound 8) (int_range 1 70)))

let arb_crossing_pair =
  QCheck.make ~print:QCheck.Print.(pair Dy.to_string Dy.to_string) gen_crossing_pair

(* {1 Graph samplers} *)

let gen_grounded_tree : Digraph.t QCheck.Gen.t =
  QCheck.Gen.(
    map2
      (fun seed n ->
        Digraph.Families.random_grounded_tree (Prng.create seed) ~n:(n + 1)
          ~t_edge_prob:0.3)
      (int_bound 10_000) (int_bound 60))

let gen_dag : Digraph.t QCheck.Gen.t =
  QCheck.Gen.(
    map2
      (fun seed n ->
        let prng = Prng.create seed in
        Digraph.Families.random_dag prng ~n:(n + 1)
          ~extra_edges:(Prng.int_in prng 0 (2 * (n + 1)))
          ~t_edge_prob:0.25)
      (int_bound 10_000) (int_bound 50))

let gen_digraph : Digraph.t QCheck.Gen.t =
  QCheck.Gen.(
    map2
      (fun seed n ->
        let prng = Prng.create seed in
        Digraph.Families.random_digraph prng ~n:(n + 1)
          ~extra_edges:(Prng.int_in prng 0 (n + 1))
          ~back_edges:(Prng.int_in prng 0 ((n / 2) + 1))
          ~t_edge_prob:0.25)
      (int_bound 10_000) (int_bound 40))

let graph_print g =
  Format.asprintf "%a" Digraph.pp g

let arb_grounded_tree = QCheck.make ~print:graph_print gen_grounded_tree
let arb_dag = QCheck.make ~print:graph_print gen_dag
let arb_digraph = QCheck.make ~print:graph_print gen_digraph

(* {1 Misc} *)

let rec pairwise_disjoint = function
  | [] -> true
  | x :: rest -> List.for_all (Is.disjoint x) rest && pairwise_disjoint rest

(* {1 Cross-scheduler parity}

   The model is asynchronous, so every delivery order is a legal execution,
   and fault, vertex-fault and churn fates are keyed by per-edge and
   per-vertex clocks, never by the interleaving.  [cross_scheduler_parity
   ~seed run check] calls [run ~engine ~scheduler] on the classic and the
   flat engine under Fifo, Lifo and a seeded Random schedule, and hands
   each run after the first to [check ctx reference r], where the
   reference is the classic Fifo run and [ctx] names the seed, engine and
   schedule (["seed 3, flat/lifo"]). *)
let cross_scheduler_parity ~seed run check =
  let runs =
    List.concat_map
      (fun engine ->
        List.map
          (fun (name, scheduler) ->
            ( Printf.sprintf "seed %d, %s/%s" seed
                (Flatcore.string_of_kind engine)
                name,
              run ~engine ~scheduler ))
          [
            ("fifo", Runtime.Scheduler.Fifo);
            ("lifo", Runtime.Scheduler.Lifo);
            ("random", Runtime.Scheduler.Random (Prng.create (seed * 31)));
          ])
      [ Flatcore.Classic; Flatcore.Flat ]
  in
  match runs with
  | [] -> assert false
  | (_, reference) :: variants ->
      List.iter (fun (ctx, r) -> check ctx reference r) variants
