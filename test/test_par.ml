(* The multicore job layer: the domain pool's ordering and error contract,
   every suite protocol run as pool jobs against the same runs made one
   after another, and the pool-backed campaign and chaos sweeps against
   the sequential ones. *)

module E = Runtime.Engine
module F = Digraph.Families
module H = Helpers

(* {1 Pool} *)

let pool_order () =
  let r = Par.Pool.run ~domains:4 100 (fun i -> i * i) in
  Alcotest.(check (array int)) "job order" (Array.init 100 (fun i -> i * i)) r;
  Alcotest.(check (list string))
    "map_list order"
    [ "a!"; "b!"; "c!" ]
    (Par.Pool.map_list ~domains:2 (fun s -> s ^ "!") [ "a"; "b"; "c" ])

let pool_empty_and_errors () =
  Alcotest.(check (array int)) "zero jobs" [||] (Par.Pool.run 0 (fun i -> i));
  Alcotest.check_raises "exception propagates" (Failure "job 7") (fun () ->
      ignore
        (Par.Pool.run ~domains:3 16 (fun i ->
             if i = 7 then failwith "job 7" else i)))

let pool_rejects_bad_domains () =
  List.iter
    (fun d ->
      Alcotest.check_raises
        (Printf.sprintf "domains %d" d)
        (Invalid_argument "Pool.run: domains < 1")
        (fun () -> ignore (Par.Pool.run ~domains:d 4 (fun i -> i))))
    [ 0; -3 ]

let pool_rejects_negative_count () =
  Alcotest.check_raises "negative job count"
    (Invalid_argument "Pool.run: negative job count") (fun () ->
      ignore (Par.Pool.run ~domains:2 (-1) (fun i -> i)))

(* Every index is claimed by exactly one domain, however the domains race
   for the shared counter. *)
let pool_each_job_once () =
  let n = 2_000 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  ignore (Par.Pool.run ~domains:4 n (fun i -> Atomic.incr hits.(i)));
  Array.iteri
    (fun i a ->
      if Atomic.get a <> 1 then
        Alcotest.failf "job %d ran %d times" i (Atomic.get a))
    hits

(* More domains than jobs: the surplus is never spawned, and the order and
   results are those of the small job set. *)
let pool_more_domains_than_jobs () =
  Alcotest.(check (array int)) "3 jobs, 8 domains" [| 0; 10; 20 |]
    (Par.Pool.run ~domains:8 3 (fun i -> 10 * i));
  Alcotest.(check (list int)) "one job" [ 42 ]
    (Par.Pool.map_list ~domains:8 (fun x -> x * 2) [ 21 ])

(* {1 Pool jobs == the same runs one after another, per suite protocol} *)

(* Everything a Fifo run reports, plus the final state digests, the
   undelivered messages (encoded) and whether the final cut satisfies the
   protocol's conservation law.  A pool job runs the ordinary sequential
   engine, so all of it must come back unchanged — including the
   schedule-dependent measures — unless a protocol or an engine shares
   mutable state between runs. *)
let fingerprint (type s m)
    (module P : Runtime.Protocol_intf.CHECKABLE
      with type state = s
       and type message = m) g =
  let module C = Runtime.Engine.Make (P) in
  let left = ref [] in
  let r = C.run ~on_undelivered:(fun m -> left := m :: !left) g in
  let encode m =
    let w = Bitio.Bit_writer.create () in
    P.encode w m;
    Bitio.Bit_writer.to_string w
  in
  let conserved =
    match P.conservation with
    | None -> true
    | Some (Runtime.Protocol_intf.Conservation c) ->
        let acc =
          List.fold_left (fun a m -> c.add a (c.of_message m)) c.zero !left
        in
        let acc =
          List.fold_left
            (fun a v ->
              c.add a
                (c.retained
                   ~out_degree:(Digraph.out_degree g v)
                   ~in_degree:(Digraph.in_degree g v)
                   r.E.states.(v)))
            acc (Digraph.vertices g)
        in
        Result.is_ok (c.check acc)
  in
  ( H.report_summary r,
    ( r.E.total_bits,
      r.E.max_edge_bits,
      r.E.max_message_bits,
      r.E.max_state_bits,
      r.E.max_in_flight,
      r.E.distinct_messages ),
    (r.E.edge_messages, r.E.edge_bits, r.E.visited),
    Array.map P.digest r.E.states,
    List.map encode !left,
    conserved )

let pool_case (type s m)
    (module P : Runtime.Protocol_intf.CHECKABLE
      with type state = s
       and type message = m) name graphs =
  let fp = fingerprint (module P) in
  let seq = List.map fp graphs in
  List.iteri
    (fun i (summary, _, _, _, _, conserved) ->
      if not conserved then
        Alcotest.failf "%s: graph %d: conservation breached (%s)" name i summary)
    seq;
  List.iter
    (fun domains ->
      let pooled = Par.Pool.map_list ~domains fp graphs in
      List.iteri
        (fun i (s, p) ->
          if s <> p then
            Alcotest.failf "%s: graph %d: %d domains differ from sequential"
              name i domains)
        (List.combine seq pooled))
    [ 2; 4 ]

let pool_tests =
  List.map
    (fun (name, cls, p) ->
      let gen, count =
        match cls with
        | `Trees -> (H.gen_grounded_tree, 40)
        | `Dags -> (H.gen_dag, 30)
        | `Digraphs -> (H.gen_digraph, 20)
      in
      Alcotest.test_case
        (Printf.sprintf "pool == seq: %s (2/4 domains)" name)
        `Quick
        (fun () ->
          let graphs =
            QCheck.Gen.generate ~rand:(Random.State.make [| 17 |]) ~n:count gen
          in
          let (module P : Runtime.Protocol_intf.CHECKABLE) = p in
          pool_case (module P) name graphs))
    (Anonet.Check_suite.protocols ())

(* {1 Parallel campaign} *)

let campaign_matches_sequential ~domains () =
  let module C = Runtime.Campaign in
  let module TR = C.Of_protocol (Anonet.Tree_broadcast) in
  let module GR = C.Of_protocol (Anonet.General_broadcast) in
  let runners = [ TR.runner (); GR.runner () ] in
  let graphs =
    [
      {
        C.g_name = "random-tree-12";
        build =
          (fun ~seed ->
            F.random_grounded_tree (Prng.create seed) ~n:12 ~t_edge_prob:0.3);
      };
      {
        C.g_name = "random-digraph-10";
        build =
          (fun ~seed ->
            F.random_digraph (Prng.create seed) ~n:10 ~extra_edges:6
              ~back_edges:2 ~t_edge_prob:0.25);
      };
    ]
  in
  (* Drop-only grid: violations are impossible (a drop can only starve), so
     per-job shrinking cannot make the merged result diverge. *)
  let grid = C.grid ~drops:[ 0.0; 0.1 ] ~max_delays:[ 0; 2 ] () in
  let seeds = [ 1; 2; 3 ] in
  let seq = C.run ~runners ~graphs ~grid ~seeds () in
  let par = Par.Campaign.run ~domains ~runners ~graphs ~grid ~seeds () in
  Alcotest.(check string)
    "identical JSON rendering" (C.to_json seq) (C.to_json par);
  Alcotest.(check bool) "sound" (C.sound seq) (C.sound par)

(* {1 Parallel chaos} *)

(* At one domain the pooled search is the sequential search; at four, the
   trial verdicts come back in trial order, so the shrink / dedup phase
   sees the same sequence and the JSON is byte-identical. *)
let chaos_matches_sequential () =
  let cfg =
    Runtime.Chaos.config ~budget:30 ~seed:5 ~recoveries:[ Runtime.Vfaults.Amnesia ]
      ~p_edge:0.2 ()
  in
  let runners =
    [ Anonet.Resilient.chaos_runner ~k:1 (module Anonet.Flood) ]
  in
  let graphs = Anonet.Resilient.chaos_graphs () in
  let seq = Runtime.Chaos.to_json (Runtime.Chaos.run cfg ~runners ~graphs) in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "%d domains" domains)
        seq
        (Runtime.Chaos.to_json (Par.Chaos.run ~domains cfg ~runners ~graphs)))
    [ 1; 4 ]

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "deterministic order" `Quick pool_order;
          Alcotest.test_case "empty + exceptions" `Quick pool_empty_and_errors;
          Alcotest.test_case "domains < 1 rejected" `Quick
            pool_rejects_bad_domains;
          Alcotest.test_case "negative job count rejected" `Quick
            pool_rejects_negative_count;
          Alcotest.test_case "each job claimed once" `Quick pool_each_job_once;
          Alcotest.test_case "more domains than jobs" `Quick
            pool_more_domains_than_jobs;
        ] );
      ("protocols", pool_tests);
      ( "campaign",
        [
          Alcotest.test_case "par sweep == sequential sweep" `Quick
            (campaign_matches_sequential ~domains:4);
          Alcotest.test_case "1-domain sweep == sequential sweep" `Quick
            (campaign_matches_sequential ~domains:1);
        ] );
      ( "chaos",
        [
          Alcotest.test_case "1/4 domains == sequential search" `Quick
            chaos_matches_sequential;
        ] );
    ]
