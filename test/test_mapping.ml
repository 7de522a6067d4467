module G = Digraph
module F = Digraph.Families
module E = Runtime.Engine
module Is = Intervals.Iset
open Helpers

module M = Anonet.Mapping
module M_engine = Anonet.Mapping_engine

let run_map ?scheduler g =
  let r = M_engine.run ?scheduler g in
  (r, M.extract_map r.states.(G.terminal g))

let check_reconstruction name g =
  let r, map = run_map g in
  Alcotest.check outcome (name ^ " terminates") E.Terminated r.outcome;
  match map with
  | Error e -> Alcotest.fail (name ^ ": extraction failed: " ^ e)
  | Ok m ->
      Alcotest.(check int)
        (name ^ ": vertex count")
        (G.n_vertices g)
        (G.n_vertices m.M.graph);
      Alcotest.(check int) (name ^ ": edge count") (G.n_edges g) (G.n_edges m.M.graph);
      Alcotest.(check bool) (name ^ ": isomorphic") true (M.map_isomorphic m g)

let test_families () =
  List.iter
    (fun (name, g) -> check_reconstruction name g)
    [
      ("path", F.path 4);
      ("comb", F.comb 6);
      ("diamond", F.diamond ());
      ("grid", F.grid_dag ~rows:3 ~cols:3);
      ("cycle", F.cycle_with_exit ~k:5);
      ("figure eight", F.figure_eight ());
      ("skeleton", F.skeleton ~n:2 ~subset:[| true; true |]);
      ("pruned tree", F.pruned_tree ~height:3 ~degree:3);
    ]

let test_direct_s_to_t () =
  (* Smallest possible network: s -> v -> t (and s -> t is disallowed by
     the model only in that t must absorb; test both tiny shapes). *)
  check_reconstruction "two hop" (F.path 1);
  let g = G.make ~n:2 ~s:0 ~t:1 [ (0, 1) ] in
  let r, map = run_map g in
  Alcotest.check outcome "s->t terminates" E.Terminated r.outcome;
  match map with
  | Error e -> Alcotest.fail e
  | Ok m ->
      Alcotest.(check int) "just s and t" 2 (G.n_vertices m.M.graph);
      Alcotest.(check bool) "isomorphic" true (M.map_isomorphic m g)

let test_trap_blocks () =
  let g = F.add_trap (F.diamond ()) ~from_vertex:1 in
  let r = M_engine.run g in
  Alcotest.check outcome "no termination" E.Quiescent r.outcome;
  match M.extract_map r.states.(G.terminal g) with
  | Ok _ -> Alcotest.fail "must not extract from non-accepting state"
  | Error _ -> ()

let test_announcements_match_degrees () =
  let g = F.figure_eight () in
  let r, _ = run_map g in
  let anns =
    List.filter
      (fun (a : M.announcement) -> a.ann_who <> M.Root)
      (M.announcements r.states.(G.terminal g))
  in
  Alcotest.(check int) "one announcement per internal vertex"
    (List.length (G.internal_vertices g))
    (List.length anns);
  (* The multiset of announced (out, in) degrees matches the ground truth. *)
  let announced =
    List.sort compare (List.map (fun (a : M.announcement) -> (a.ann_out, a.ann_in)) anns)
  in
  let truth =
    List.sort compare
      (List.map (fun v -> (G.out_degree g v, G.in_degree g v)) (G.internal_vertices g))
  in
  Alcotest.(check (list (pair int int))) "degree multiset" truth announced

let test_facts_cover_every_edge () =
  let g = F.grid_dag ~rows:2 ~cols:3 in
  let r, _ = run_map g in
  let t_state = r.states.(G.terminal g) in
  let flooded = List.length (M.facts t_state) in
  (* Every edge not ending at t is a flooded fact; edges into t are local. *)
  let into_t =
    List.length (List.filter (fun (_, v) -> v = G.terminal g) (G.edges g))
  in
  Alcotest.(check int) "flooded facts + t-local = |E|" (G.n_edges g)
    (flooded + into_t)

let prop_reconstruction_on_random_digraphs =
  qcheck_to_alcotest ~count:60 "reconstructs random digraphs exactly" arb_digraph
    (fun g ->
      let r, map = run_map g in
      r.outcome = E.Terminated
      &&
      match map with
      | Error _ -> false
      | Ok m ->
          G.n_vertices m.M.graph = G.n_vertices g
          && G.n_edges m.M.graph = G.n_edges g
          && M.map_isomorphic m g)

let prop_reconstruction_on_random_dags =
  qcheck_to_alcotest ~count:60 "reconstructs random DAGs exactly" arb_dag (fun g ->
      let _, map = run_map g in
      match map with Error _ -> false | Ok m -> M.map_isomorphic m g)

let prop_schedule_independent_reconstruction =
  qcheck_to_alcotest ~count:30 "reconstruction is schedule independent"
    QCheck.(pair arb_digraph (int_bound 1000))
    (fun (g, seed) ->
      [
        Runtime.Scheduler.Fifo;
        Runtime.Scheduler.Lifo;
        Runtime.Scheduler.Random (Prng.create seed);
        Runtime.Scheduler.Edge_priority (fun e -> -e);
        Runtime.Scheduler.Edge_priority (fun e -> e);
      ]
      |> List.for_all (fun sch ->
             match run_map ~scheduler:sch g with
             | _, Ok m -> M.map_isomorphic m g
             | _, Error _ -> false))

let prop_traps_block_mapping =
  qcheck_to_alcotest ~count:40 "traps prevent mapping termination"
    QCheck.(pair arb_digraph (int_bound 1000))
    (fun (g, seed) ->
      let internals = G.internal_vertices g in
      QCheck.assume (internals <> []);
      let v = List.nth internals (seed mod List.length internals) in
      let r = M_engine.run (F.add_trap g ~from_vertex:v) in
      r.outcome = E.Quiescent)

(* The reconstructed labels are exactly the labeling protocol's labels. *)
let test_map_labels_are_valid_intervals () =
  let g = F.cycle_with_exit ~k:4 in
  let _, map = run_map g in
  match map with
  | Error e -> Alcotest.fail e
  | Ok m ->
      Array.iteri
        (fun v lbl ->
          match lbl with
          | Some iv ->
              Alcotest.(check bool)
                (Printf.sprintf "vertex %d label inside [0,1)" v)
                true
                (Is.subset (Is.of_interval iv) Is.unit)
          | None ->
              Alcotest.(check bool) "only s and t unlabeled" true
                (v = 0 || v = G.n_vertices m.M.graph - 1))
        m.M.labels

let test_map_isomorphic_rejects_wrong_graph () =
  let g = F.diamond () in
  let _, map = run_map g in
  match map with
  | Error e -> Alcotest.fail e
  | Ok m ->
      Alcotest.(check bool) "accepts truth" true (M.map_isomorphic m g);
      Alcotest.(check bool) "rejects different graph" false
        (M.map_isomorphic m (F.path 4));
      (* Same sizes, different wiring. *)
      let other = G.make ~n:6 ~s:0 ~t:5 [ (0, 1); (1, 2); (2, 3); (3, 4); (2, 4); (4, 5) ] in
      Alcotest.(check bool) "rejects same-size different graph" false
        (M.map_isomorphic m other)

(* Byte-identity gate for mapping: the full report on random:40:5 (42
   vertices, 104 edges), on both engines.  [max_state_bits] counts the
   announcement, fact and in-port tables beside the labeling core. *)
let test_report_pinned () =
  let g = graph_of_spec "random:40:5" in
  let module Flat = Flatcore.Engine.Make (M) in
  check_report_pinned ~deliveries:2_566 ~total_bits:549_771 ~max_edge_bits:9_476
    ~max_message_bits:1_096 ~distinct_messages:2_566 ~max_state_bits:16_327
    [ ("classic", M_engine.run g); ("flat", Flat.run g) ]

let () =
  Alcotest.run "mapping"
    [
      ( "reconstruction",
        [
          Alcotest.test_case "families" `Quick test_families;
          Alcotest.test_case "tiny networks" `Quick test_direct_s_to_t;
          Alcotest.test_case "trap blocks" `Quick test_trap_blocks;
          prop_reconstruction_on_random_digraphs;
          prop_reconstruction_on_random_dags;
          prop_schedule_independent_reconstruction;
          prop_traps_block_mapping;
        ] );
      ( "knowledge",
        [
          Alcotest.test_case "announcements match degrees" `Quick
            test_announcements_match_degrees;
          Alcotest.test_case "facts cover edges" `Quick test_facts_cover_every_edge;
          Alcotest.test_case "labels valid" `Quick test_map_labels_are_valid_intervals;
          Alcotest.test_case "isomorphism test discriminates" `Quick
            test_map_isomorphic_rejects_wrong_graph;
          Alcotest.test_case "random:40:5 report pinned" `Quick test_report_pinned;
        ] );
    ]
