module G = Digraph
module F = Digraph.Families
module E = Runtime.Engine
module Is = Intervals.Iset
open Helpers

module GB = Anonet.General_broadcast
module GB_engine = Anonet.General_engine

let schedulers seed =
  [
    Runtime.Scheduler.Fifo;
    Runtime.Scheduler.Lifo;
    Runtime.Scheduler.Random (Prng.create seed);
    Runtime.Scheduler.Edge_priority (fun e -> -e);
    Runtime.Scheduler.Edge_priority (fun e -> e);
  ]

let test_terminates_everywhere () =
  List.iter
    (fun (name, g) ->
      let st = Anonet.broadcast_general g in
      Alcotest.check outcome (name ^ " terminates") E.Terminated st.outcome;
      Alcotest.(check bool) (name ^ " visits all") true st.all_visited)
    [
      ("path", F.path 5);
      ("comb", F.comb 8);
      ("diamond", F.diamond ());
      ("grid", F.grid_dag ~rows:3 ~cols:4);
      ("cycle", F.cycle_with_exit ~k:7);
      ("figure eight", F.figure_eight ());
      ("full tree", F.full_tree ~height:3 ~degree:2);
      ("skeleton", F.skeleton ~n:2 ~subset:[| true; false |]);
    ]

let test_terminal_covers_unit () =
  let g = F.figure_eight () in
  let r = GB_engine.run g in
  Alcotest.check iset "covered = [0,1)" Is.unit (GB.covered r.states.(G.terminal g))

let test_no_termination_on_traps () =
  List.iter
    (fun (name, g) ->
      let st = Anonet.broadcast_general g in
      Alcotest.check outcome (name ^ " must not terminate") E.Quiescent st.outcome)
    [
      ("sink trap", F.add_trap (F.cycle_with_exit ~k:4) ~from_vertex:2);
      ("cycle trap", F.add_trap_cycle (F.grid_dag ~rows:2 ~cols:3) ~from_vertex:1);
      ("trap off comb", F.add_trap (F.comb 4) ~from_vertex:2);
    ]

let test_self_loop_handled () =
  (* A self-loop is the smallest cycle: detected and beta-diverted. *)
  let g = G.make ~n:4 ~s:0 ~t:3 [ (0, 1); (1, 1); (1, 2); (2, 3) ] in
  let st = Anonet.broadcast_general g in
  Alcotest.check outcome "self-loop terminates" E.Terminated st.outcome

let test_multi_edge_handled () =
  let g = G.make ~n:4 ~s:0 ~t:3 [ (0, 1); (1, 2); (1, 2); (2, 3); (2, 3) ] in
  let st = Anonet.broadcast_general g in
  Alcotest.check outcome "multi-edges terminate" E.Terminated st.outcome

let test_two_vertex_cycle () =
  (* s -> a <-> b, a -> t: beta must carry b's stuck half back out. *)
  let g = G.make ~n:4 ~s:0 ~t:3 [ (0, 1); (1, 2); (2, 1); (1, 3) ] in
  let st = Anonet.broadcast_general g in
  Alcotest.check outcome "terminates" E.Terminated st.outcome;
  Alcotest.(check bool) "all visited" true st.all_visited

let prop_terminates_on_random_digraphs =
  qcheck_to_alcotest ~count:100 "terminates and visits all on random digraphs"
    arb_digraph (fun g ->
      let st = Anonet.broadcast_general g in
      st.outcome = E.Terminated && st.all_visited)

let prop_schedule_independent =
  qcheck_to_alcotest ~count:40 "schedule independent"
    QCheck.(pair arb_digraph (int_bound 1000))
    (fun (g, seed) ->
      schedulers seed
      |> List.for_all (fun sch ->
             let st = Anonet.broadcast_general ~scheduler:sch g in
             st.outcome = E.Terminated && st.all_visited))

let prop_trap_never_terminates =
  qcheck_to_alcotest ~count:50 "traps always prevent termination"
    QCheck.(pair arb_digraph (int_bound 1000))
    (fun (g, seed) ->
      let internals = G.internal_vertices g in
      QCheck.assume (internals <> []);
      let v = List.nth internals (seed mod List.length internals) in
      (Anonet.broadcast_general (F.add_trap g ~from_vertex:v)).outcome = E.Quiescent
      && (Anonet.broadcast_general (F.add_trap_cycle g ~from_vertex:v)).outcome
         = E.Quiescent)

(* Theorem 4.3's structural bounds, measured on real runs. *)
let prop_message_size_bounds =
  qcheck_to_alcotest ~count:40 "interval count and endpoint bits stay bounded"
    arb_digraph (fun g ->
      let max_intervals = ref 0 and max_endpoint = ref 0 in
      let hook (_ : E.event) ((alpha, beta) : GB.message) =
        max_intervals := max !max_intervals (Is.count alpha + Is.count beta);
        max_endpoint :=
          max !max_endpoint
            (max (Is.max_endpoint_bits alpha) (Is.max_endpoint_bits beta))
      in
      let r = GB_engine.run ~on_deliver:hook g in
      let e = G.n_edges g and v = G.n_vertices g in
      let logd =
        let d = G.max_out_degree g in
        let rec lg acc n = if n <= 1 then acc else lg (acc + 1) (n / 2) in
        max 1 (lg 0 d + 1)
      in
      r.outcome = E.Terminated
      (* Each vertex partitions once into <= d_out parts: O(|E|) intervals. *)
      && !max_intervals <= (4 * e) + 8
      (* Endpoints gain O(log d_out) bits per vertex on the path. *)
      && !max_endpoint <= (8 * v * logd) + 64)

(* Theorem 4.2's per-edge traffic argument: any value is alpha-carried (and
   beta-carried) at most once per edge, so an edge carries O(|E|) messages. *)
let prop_per_edge_message_bound =
  qcheck_to_alcotest ~count:40 "per-edge message count O(|E|)" arb_digraph
    (fun g ->
      let r = GB_engine.run g in
      let worst = Array.fold_left max 0 r.edge_messages in
      r.outcome = E.Terminated && worst <= (4 * G.n_edges g) + 4)

(* State-monotonicity as observed through the engine: covered sets only
   grow at the terminal. *)
let test_monotone_coverage_at_terminal () =
  let g = F.figure_eight () in
  let t = G.terminal g in
  let last = ref Is.empty in
  let ok = ref true in
  let hook (ev : E.event) ((alpha, beta) : GB.message) =
    if ev.to_vertex = t then begin
      let now = Is.union !last (Is.union alpha beta) in
      if not (Is.subset !last now) then ok := false;
      last := now
    end
  in
  let r = GB_engine.run ~on_deliver:hook g in
  Alcotest.check outcome "terminated" E.Terminated r.outcome;
  Alcotest.(check bool) "coverage monotone" true !ok;
  Alcotest.check iset "hook reconstructs coverage" (GB.covered r.states.(t)) !last

(* The broadcast payload m rides on every message: communication scales by
   |m| * deliveries, exactly the |E||m| term. *)
let test_payload_term () =
  let g = F.cycle_with_exit ~k:5 in
  let plain = GB_engine.run g in
  let with_m = GB_engine.run ~payload_bits:64 g in
  Alcotest.(check int) "payload term"
    (plain.total_bits + (64 * plain.deliveries))
    with_m.total_bits

(* Byte-identity gate: the full report of general broadcast on
   random:800:1 (the 802-vertex, 2118-edge instance behind the CLI timing
   in EXPERIMENTS.md), on both engines, pinned to the values of the
   sort-based interval algebra.  A rewrite of Iset, Dyadic or
   Interval_core that moves a single delivery or bit fails here. *)
let test_report_pinned () =
  let g = graph_of_spec "random:800:1" in
  let module Flat = Flatcore.Engine.Make (GB) in
  check_report_pinned ~deliveries:40_328 ~total_bits:2_146_077 ~max_edge_bits:2_771
    ~max_message_bits:85 ~distinct_messages:1_792 ~max_state_bits:13_258
    [ ("classic", GB_engine.run g); ("flat", Flat.run g) ]

let () =
  Alcotest.run "general-broadcast"
    [
      ( "termination",
        [
          Alcotest.test_case "families terminate" `Quick test_terminates_everywhere;
          Alcotest.test_case "coverage at t" `Quick test_terminal_covers_unit;
          Alcotest.test_case "traps block" `Quick test_no_termination_on_traps;
          Alcotest.test_case "self loop" `Quick test_self_loop_handled;
          Alcotest.test_case "multi edge" `Quick test_multi_edge_handled;
          Alcotest.test_case "two-vertex cycle" `Quick test_two_vertex_cycle;
          prop_terminates_on_random_digraphs;
          prop_schedule_independent;
          prop_trap_never_terminates;
        ] );
      ( "complexity-shape",
        [
          prop_message_size_bounds;
          prop_per_edge_message_bound;
          Alcotest.test_case "monotone coverage" `Quick test_monotone_coverage_at_terminal;
          Alcotest.test_case "payload |m| term" `Quick test_payload_term;
          Alcotest.test_case "random:800:1 report pinned" `Quick test_report_pinned;
        ] );
    ]
