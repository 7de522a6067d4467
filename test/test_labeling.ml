module G = Digraph
module F = Digraph.Families
module E = Runtime.Engine
module Is = Intervals.Iset
module I = Intervals.Interval
open Helpers

module L = Anonet.Labeling
module L_engine = Anonet.Labeling_engine

(* Labels of the internal vertices after a run. *)
let internal_labels g (r : L.state E.report) =
  List.map (fun v -> L.label r.states.(v)) (G.internal_vertices g)

let check_unique_labeling name g =
  let r = L_engine.run g in
  Alcotest.check outcome (name ^ " terminates") E.Terminated r.outcome;
  let labels = internal_labels g r in
  Alcotest.(check bool) (name ^ ": all internal vertices labeled") true
    (List.for_all (fun l -> not (Is.is_empty l)) labels);
  Alcotest.(check bool) (name ^ ": labels pairwise disjoint") true
    (pairwise_disjoint labels);
  Alcotest.(check bool) (name ^ ": labels are single intervals") true
    (List.for_all (fun l -> Is.count l = 1) labels)

let test_families () =
  List.iter
    (fun (name, g) -> check_unique_labeling name g)
    [
      ("path", F.path 4);
      ("comb", F.comb 7);
      ("diamond", F.diamond ());
      ("grid", F.grid_dag ~rows:3 ~cols:3);
      ("cycle", F.cycle_with_exit ~k:6);
      ("figure eight", F.figure_eight ());
      ("pruned tree", F.pruned_tree ~height:4 ~degree:3);
    ]

let test_trap_blocks () =
  let g = F.add_trap (F.cycle_with_exit ~k:4) ~from_vertex:1 in
  Alcotest.check outcome "no termination with trap" E.Quiescent (L_engine.run g).outcome

let prop_unique_labels_on_random_digraphs =
  qcheck_to_alcotest ~count:80 "unique disjoint single-interval labels" arb_digraph
    (fun g ->
      let r = L_engine.run g in
      let labels = internal_labels g r in
      r.outcome = E.Terminated
      && List.for_all (fun l -> not (Is.is_empty l)) labels
      && pairwise_disjoint labels
      && List.for_all (fun l -> Is.count l = 1) labels)

let prop_labels_schedule_independent_validity =
  qcheck_to_alcotest ~count:40 "valid under every schedule"
    QCheck.(pair arb_digraph (int_bound 1000))
    (fun (g, seed) ->
      [
        Runtime.Scheduler.Fifo;
        Runtime.Scheduler.Lifo;
        Runtime.Scheduler.Random (Prng.create seed);
      ]
      |> List.for_all (fun sch ->
             let r = L_engine.run ~scheduler:sch g in
             let labels = internal_labels g r in
             r.outcome = E.Terminated
             && List.for_all (fun l -> not (Is.is_empty l)) labels
             && pairwise_disjoint labels))

(* Labels are still subsets of [0,1) accounted for at the terminal: label
   union beta union alpha at t covers the unit interval. *)
let prop_labels_accounted_at_terminal =
  qcheck_to_alcotest ~count:60 "terminal accounts for every label" arb_digraph
    (fun g ->
      let r = L_engine.run g in
      r.outcome = E.Terminated
      &&
      let covered_at_t = L.covered r.states.(G.terminal g) in
      List.for_all
        (fun l -> Is.subset l covered_at_t)
        (internal_labels g r))

(* Theorem 5.1: label length O(|V| log d_out) bits. *)
let prop_label_bits_bounded =
  qcheck_to_alcotest ~count:60 "label bits O(|V| log d_out)" arb_digraph (fun g ->
      let r = L_engine.run g in
      r.outcome = E.Terminated
      &&
      let v = G.n_vertices g in
      let logd =
        let rec lg acc n = if n <= 1 then acc else lg (acc + 1) (n / 2) in
        max 1 (lg 0 (G.max_out_degree g) + 1)
      in
      List.for_all
        (fun l -> Is.max_endpoint_bits l <= (8 * v * logd) + 64)
        (internal_labels g r))

(* Label determinism: the protocol is deterministic under a fixed schedule. *)
let test_deterministic_under_fifo () =
  let g = F.figure_eight () in
  let r1 = L_engine.run g and r2 = L_engine.run g in
  List.iter2
    (fun a b -> Alcotest.check iset "same label" a b)
    (internal_labels g r1) (internal_labels g r2)

(* The first labeled vertex keeps the first slice of [0,1): on a path the
   labels are fully predictable. *)
let test_path_labels_explicit () =
  let g = F.path 2 in
  (* s=0 -> v1 -> v2 -> t.  v1 has out-degree 1: canonical partition of
     [0,1) into 2 parts: label [0,1/2), forward [1/2,1).  v2 then keeps
     [1/2,3/4) and forwards [3/4,1). *)
  let r = L_engine.run g in
  Alcotest.check outcome "terminated" E.Terminated r.outcome;
  let dy n e = Exact.Dyadic.make (Bignat.of_int n) e in
  Alcotest.check iset "v1 label" (Is.interval Exact.Dyadic.zero Exact.Dyadic.half)
    (L.label r.states.(1));
  Alcotest.check iset "v2 label" (Is.interval Exact.Dyadic.half (dy 3 2))
    (L.label r.states.(2));
  Alcotest.check iset "t absorbs the rest as terminal coverage"
    Is.unit (L.covered r.states.(3))

(* Every vertex that never lies on an s->t path keeps the protocol from
   terminating; vertices on paths always get labels first. *)
let test_labels_exist_before_termination () =
  let g = F.cycle_with_exit ~k:5 in
  let t = G.terminal g in
  let labeled_at_end = ref 0 in
  let hook (ev : E.event) (_ : L.message) = ignore ev in
  let r = L_engine.run ~on_deliver:hook g in
  Array.iteri
    (fun v st ->
      if v <> G.source g && v <> t && not (Is.is_empty (L.label st)) then
        incr labeled_at_end)
    r.states;
  Alcotest.(check int) "all five cycle vertices labeled" 5 !labeled_at_end

(* Byte-identity gate for labeling: the full report on random:200:3 (202
   vertices, 530 edges), on both engines.  [max_state_bits] includes the
   kept label, so a change to how the state is sized shows here. *)
let test_report_pinned () =
  let g = graph_of_spec "random:200:3" in
  let module Flat = Flatcore.Engine.Make (L) in
  check_report_pinned ~deliveries:18_186 ~total_bits:1_259_299 ~max_edge_bits:5_236
    ~max_message_bits:303 ~distinct_messages:1_081 ~max_state_bits:13_569
    [ ("classic", L_engine.run g); ("flat", Flat.run g) ]

let () =
  Alcotest.run "labeling"
    [
      ( "uniqueness",
        [
          Alcotest.test_case "families" `Quick test_families;
          Alcotest.test_case "trap blocks" `Quick test_trap_blocks;
          prop_unique_labels_on_random_digraphs;
          prop_labels_schedule_independent_validity;
          prop_labels_accounted_at_terminal;
        ] );
      ( "label-structure",
        [
          prop_label_bits_bounded;
          Alcotest.test_case "deterministic under fifo" `Quick
            test_deterministic_under_fifo;
          Alcotest.test_case "path labels explicit" `Quick test_path_labels_explicit;
          Alcotest.test_case "cycle labels complete" `Quick
            test_labels_exist_before_termination;
          Alcotest.test_case "random:200:3 report pinned" `Quick test_report_pinned;
        ] );
    ]
