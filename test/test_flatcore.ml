(* The flat engine against the classic engine.

   Both engines run one delivery loop; the flat one hands it CSR arrays
   and a message arena where the classic one builds its tables from the
   [Digraph] and encodes every crossing.  So for equal inputs every field
   of the report — including schedule-dependent measures like delivery
   counts, bit high-water marks and per-edge arrays — must be
   byte-for-byte identical, the [on_deliver] streams must agree event for
   event, and the deterministic [engine.*] Obs cells must reconcile
   exactly.  Only the [engine.receive_ns*] wall-clock cells are exempt;
   the flood fast path, a separate loop, is checked against classic on
   its own.

   The CSR compilation itself is checked on a hand-built multigraph
   (multi-edges, self-loops, port permutations) and on random digraphs:
   every per-edge array and degree the engine reads must agree with
   [Digraph], edge-index round-trips included. *)

module E = Runtime.Engine
module F = Digraph.Families
module H = Helpers
module Scheduler = Runtime.Scheduler

(* {1 Report and Obs comparison} *)

let same_reports (type s) ~ctx (digest : s -> string) (cr : s E.report)
    (fr : s E.report) =
  let chk name t a b = Alcotest.check t (ctx ^ ": " ^ name) a b in
  chk "outcome" H.outcome cr.E.outcome fr.E.outcome;
  chk "deliveries" Alcotest.int cr.E.deliveries fr.E.deliveries;
  chk "total_bits" Alcotest.int cr.E.total_bits fr.E.total_bits;
  chk "max_edge_bits" Alcotest.int cr.E.max_edge_bits fr.E.max_edge_bits;
  chk "max_message_bits" Alcotest.int cr.E.max_message_bits fr.E.max_message_bits;
  chk "max_state_bits" Alcotest.int cr.E.max_state_bits fr.E.max_state_bits;
  chk "max_in_flight" Alcotest.int cr.E.max_in_flight fr.E.max_in_flight;
  chk "final_in_flight" Alcotest.int cr.E.final_in_flight fr.E.final_in_flight;
  chk "distinct_messages" Alcotest.int cr.E.distinct_messages
    fr.E.distinct_messages;
  chk "edge_messages" Alcotest.(array int) cr.E.edge_messages fr.E.edge_messages;
  chk "edge_bits" Alcotest.(array int) cr.E.edge_bits fr.E.edge_bits;
  chk "visited" Alcotest.(array bool) cr.E.visited fr.E.visited;
  chk "states" Alcotest.(array string) (Array.map digest cr.E.states)
    (Array.map digest fr.E.states);
  chk "fault_stats" Alcotest.bool true (cr.E.fault_stats = fr.E.fault_stats);
  chk "vfault_stats" Alcotest.bool true (cr.E.vfault_stats = fr.E.vfault_stats);
  chk "churn_stats" Alcotest.bool true (cr.E.churn_stats = fr.E.churn_stats)

(* Everything in the registry must match except the wall-clock receive
   timings (their histogram {e counts} agree, their contents cannot) and
   the [engine.gc.*] gauges (allocation word counts are an artifact of
   each implementation's data structures, not of the semantics). *)
let strip_ns snap =
  List.filter
    (fun (name, _) ->
      (not (String.starts_with ~prefix:"engine.receive_ns" name))
      && not (String.starts_with ~prefix:"engine.gc." name))
    snap

let receive_ns_count snap =
  match Obs.Registry.find_histogram snap "engine.receive_ns_hist" with
  | Some (count, _, _) -> count
  | None -> 0

let same_obs ~ctx (a : Obs.t) (b : Obs.t) =
  let sa = Obs.Registry.snapshot a.Obs.registry
  and sb = Obs.Registry.snapshot b.Obs.registry in
  Alcotest.(check int)
    (ctx ^ ": sampled-receive count")
    (receive_ns_count sa) (receive_ns_count sb);
  let sa = strip_ns sa and sb = strip_ns sb in
  if sa <> sb then
    Alcotest.failf "%s: obs snapshots differ:\n%s\nvs\n%s" ctx
      (Obs.Registry.to_json sa) (Obs.Registry.to_json sb)

(* {1 CSR builder units} *)

(* Every CSR array the engine reads, against the pointer representation:
   endpoints and ports of each dense edge, the index round-trip, and the
   degrees the fast path and the shared loop take. *)
let csr_matches g =
  let c = Flatcore.Csr.of_digraph g in
  Alcotest.(check int) "n" (Digraph.n_vertices g) (Flatcore.Csr.n_vertices c);
  Alcotest.(check int) "m" (Digraph.n_edges g) (Flatcore.Csr.n_edges c);
  Alcotest.(check int) "s" (Digraph.source g) (Flatcore.Csr.source c);
  Alcotest.(check int) "t" (Digraph.terminal g) (Flatcore.Csr.terminal c);
  for v = 0 to Digraph.n_vertices g - 1 do
    let ctx = Printf.sprintf "vertex %d" v in
    Alcotest.(check int) (ctx ^ ": out_degree") (Digraph.out_degree g v)
      (Flatcore.Csr.out_degree c v);
    Alcotest.(check int) (ctx ^ ": in_degree") (Digraph.in_degree g v)
      (Flatcore.Csr.in_degree c v)
  done;
  for e = 0 to Digraph.n_edges g - 1 do
    let u, j = Digraph.edge_of_index g e in
    let tv, tp = Digraph.out_port_target_port g u j in
    let ctx = Printf.sprintf "edge %d" e in
    Alcotest.(check int) (ctx ^ ": src") u (Flatcore.Csr.edge_src c e);
    Alcotest.(check int) (ctx ^ ": src port") j (Flatcore.Csr.edge_src_port c e);
    Alcotest.(check int) (ctx ^ ": head") tv (Flatcore.Csr.edge_head c e);
    Alcotest.(check int) (ctx ^ ": tgt port") tp (Flatcore.Csr.edge_tgt_port c e);
    Alcotest.(check int)
      (ctx ^ ": index round-trip")
      e
      (Flatcore.Csr.edge_index c u j)
  done

(* Multi-edges 0->1, a self-loop at 1, skewed ports: the shapes that break
   sloppy port bookkeeping. *)
let csr_multigraph () =
  csr_matches
    (Digraph.make ~n:4 ~s:0 ~t:3
       [ (0, 1); (0, 1); (1, 1); (1, 2); (2, 3); (0, 3); (2, 1) ])

(* {1 Flat == classic, per suite protocol} *)

(* [verify_codec] + hooks force the generic path, so this exercises the
   full transcription; schedulers cover every pool flavor.  [Random] takes
   a mutable PRNG, hence a fresh same-seed generator per engine. *)
let equiv_case (type s m)
    (module P : Runtime.Protocol_intf.CHECKABLE
      with type state = s
       and type message = m) name g =
  let module C = Runtime.Engine.Make (P) in
  let module Fl = Flatcore.Engine.Make (P) in
  let encode m =
    let w = Bitio.Bit_writer.create () in
    P.encode w m;
    string_of_int (Bitio.Bit_writer.length w) ^ ":" ^ Bitio.Bit_writer.to_string w
  in
  let run_pair mk_sched ctx =
    let cl = ref [] and fl = ref [] in
    let co = Obs.create ~sample_every:7 () in
    let fo = Obs.create ~sample_every:7 () in
    let cr =
      C.run ~scheduler:(mk_sched ()) ~payload_bits:2 ~verify_codec:true ~obs:co
        ~on_undelivered:(fun m -> cl := encode m :: !cl)
        g
    in
    let fr =
      Fl.run ~scheduler:(mk_sched ()) ~payload_bits:2 ~verify_codec:true
        ~obs:fo
        ~on_undelivered:(fun m -> fl := encode m :: !fl)
        g
    in
    same_reports ~ctx P.digest cr fr;
    Alcotest.(check (list string)) (ctx ^ ": leftover") !cl !fl;
    same_obs ~ctx co fo
  in
  run_pair (fun () -> Scheduler.Fifo) (name ^ "/fifo");
  run_pair (fun () -> Scheduler.Lifo) (name ^ "/lifo");
  run_pair (fun () -> Scheduler.Random (Prng.create 5)) (name ^ "/random");
  run_pair
    (fun () -> Scheduler.Edge_priority (fun e -> e mod 3))
    (name ^ "/edge-priority");
  (* And once with everything defaulted — the configuration the CLI's
     [--engine flat] actually runs, fast path included when it certifies. *)
  let cr = C.run g and fr = Fl.run g in
  same_reports ~ctx:(name ^ "/plain") P.digest cr fr;
  true

let equivalence_tests =
  List.map
    (fun (name, cls, p) ->
      let arb, count =
        match cls with
        | `Trees -> (H.arb_grounded_tree, 25)
        | `Dags -> (H.arb_dag, 15)
        | `Digraphs -> (H.arb_digraph, 10)
      in
      H.qcheck_to_alcotest ~count
        (Printf.sprintf "flat == classic: %s (all schedulers)" name)
        arb
        (fun g ->
          let (module P : Runtime.Protocol_intf.CHECKABLE) = p in
          equiv_case (module P) name g))
    (Anonet.Check_suite.protocols ())

(* {1 Chaos parity: faults x vfaults x supervisor x churn} *)

let chaos_graph ~family seed =
  match family with
  | `Trees ->
      F.random_grounded_tree (Prng.create (40 + seed)) ~n:24 ~t_edge_prob:0.3
  | `Dags ->
      F.random_dag (Prng.create (40 + seed)) ~n:20 ~extra_edges:10
        ~t_edge_prob:0.3
  | `Digraphs ->
      F.random_digraph (Prng.create (40 + seed)) ~n:16 ~extra_edges:12
        ~back_edges:4 ~t_edge_prob:0.25

(* Edge faults, vertex faults, churn and a supervisor, all seeded. *)
let chaos_plans seed =
  let faults =
    Runtime.Faults.create ~drop:0.1 ~duplicate:0.05 ~max_delay:3 ~corrupt:0.1
      ~kill:0.04 ~seed ()
  in
  let vfaults =
    Runtime.Vfaults.uniform
      (Runtime.Vfaults.plan ~crash:0.05 ~max_downtime:3
         ~recovery:Runtime.Vfaults.Amnesia ~stutter:0.05 ())
      ~seed
  in
  let churn =
    Runtime.Churn.uniform
      (Runtime.Churn.plan ~remove:0.08 ~max_downtime:4 ())
      ~seed
  in
  let supervisor =
    { Runtime.Supervisor.default with max_retries = 3; seed = seed * 7 }
  in
  (faults, vfaults, churn, supervisor)

let chaos_parity (type s m)
    (module P : Runtime.Protocol_intf.CHECKABLE
      with type state = s
       and type message = m) name ~family () =
  for seed = 1 to 6 do
    let g = chaos_graph ~family seed in
    let module C = Runtime.Engine.Make (P) in
    let module Fl = Flatcore.Engine.Make (P) in
    let faults, vfaults, churn, supervisor = chaos_plans seed in
    let variants =
      [
        ("faults", Some faults, None, None, None);
        ("vfaults", None, Some vfaults, None, None);
        ("vfaults+supervisor", None, Some vfaults, None, Some supervisor);
        ("churn", None, None, Some churn, None);
        ("everything", Some faults, Some vfaults, Some churn, Some supervisor);
      ]
    in
    List.iter
      (fun (vname, faults, vfaults, churn, supervisor) ->
        let ctx = Printf.sprintf "%s/%s/seed-%d" name vname seed in
        let co = Obs.create ~sample_every:5 () in
        let fo = Obs.create ~sample_every:5 () in
        let cr = C.run ?faults ?vfaults ?churn ?supervisor ~obs:co g in
        let fr = Fl.run ?faults ?vfaults ?churn ?supervisor ~obs:fo g in
        same_reports ~ctx P.digest cr fr;
        same_obs ~ctx co fo)
      variants
  done

let chaos_tests =
  List.map
    (fun (name, cls, p) ->
      let (module P : Runtime.Protocol_intf.CHECKABLE) = p in
      Alcotest.test_case
        (Printf.sprintf "chaos parity: %s" name)
        `Quick
        (chaos_parity (module P) name ~family:cls))
    (Anonet.Check_suite.protocols ())

(* {1 Event-stream parity}

   Every field of an [on_deliver] event — step, seq, both endpoints and
   ports, charged bits — comes from the edge tables and the wire of the
   engine that ran, and the message is whatever survived the fates.  Under
   every fate source at once and the non-FIFO pools, the two engines must
   hand the hook the same stream, message encodings included. *)
let stream_parity (type s m)
    (module P : Runtime.Protocol_intf.CHECKABLE
      with type state = s
       and type message = m) name ~family () =
  let module C = Runtime.Engine.Make (P) in
  let module Fl = Flatcore.Engine.Make (P) in
  let record acc (ev : E.event) msg =
    let w = Bitio.Bit_writer.create () in
    P.encode w msg;
    acc :=
      Printf.sprintf "step %d seq %d %d:%d -> %d:%d %d bits [%d]%S" ev.E.step
        ev.E.seq ev.E.from_vertex ev.E.from_port ev.E.to_vertex ev.E.to_port
        ev.E.bits (Bitio.Bit_writer.length w) (Bitio.Bit_writer.to_string w)
      :: !acc
  in
  let observed = ref 0 in
  for seed = 1 to 6 do
    let g = chaos_graph ~family seed in
    let faults, vfaults, churn, supervisor = chaos_plans seed in
    List.iter
      (fun (sname, mk_sched) ->
        let ctx = Printf.sprintf "%s/%s/seed-%d" name sname seed in
        let cl = ref [] and fl = ref [] in
        let cr =
          C.run ~scheduler:(mk_sched ()) ~faults ~vfaults ~churn ~supervisor
            ~on_deliver:(record cl) g
        in
        let fr =
          Fl.run ~scheduler:(mk_sched ()) ~faults ~vfaults ~churn ~supervisor
            ~on_deliver:(record fl) g
        in
        same_reports ~ctx P.digest cr fr;
        Alcotest.(check (list string)) (ctx ^ ": on_deliver stream") !cl !fl;
        observed := !observed + List.length !cl)
      [
        ("lifo", fun () -> Scheduler.Lifo);
        ("random", fun () -> Scheduler.Random (Prng.create (seed * 17)));
        ("edge-priority", fun () -> Scheduler.Edge_priority (fun e -> e mod 3));
      ]
  done;
  (* A seed's fates may swallow every copy; the sweep as a whole must not. *)
  Alcotest.(check bool) (name ^ ": events observed") true (!observed > 0)

let stream_tests =
  List.map
    (fun (name, cls, p) ->
      let (module P : Runtime.Protocol_intf.CHECKABLE) = p in
      Alcotest.test_case
        (Printf.sprintf "on_deliver parity: %s" name)
        `Quick
        (stream_parity (module P) name ~family:cls))
    (Anonet.Check_suite.protocols ())

(* {1 Replay parity} *)

(* A [Random] run under every fate source at once, recorded through
   [on_pop] and replayed as a [Replay] schedule on both engines: each
   replay must reproduce the recorded run's report and Obs snapshot.
   Delayed copies and supervisor retransmissions are the cases where the
   replay pool must report empty without consuming its head. *)
module K3 = struct
  let k = 3
end

module General_r3 = Anonet.Redundant.Make (K3) (Anonet.General_broadcast)

let replay_parity () =
  let module C = Runtime.Engine.Make (General_r3) in
  let module Fl = Flatcore.Engine.Make (General_r3) in
  let digest s =
    Anonet.General_broadcast.digest (General_r3.inner s)
    ^ "/" ^ string_of_int (General_r3.dedup_entries s)
  in
  for seed = 1 to 12 do
    let g = Result.get_ok (F.of_spec (Printf.sprintf "random:14:%d" seed)) in
    let faults =
      Runtime.Faults.create ~drop:0.1 ~duplicate:0.05 ~max_delay:3 ~corrupt:0.1
        ~kill:0.04 ~seed ()
    in
    let vfaults =
      Runtime.Vfaults.uniform
        (Runtime.Vfaults.plan ~crash:0.05 ~max_downtime:3
           ~recovery:Runtime.Vfaults.Amnesia ~stutter:0.05 ())
        ~seed
    in
    let churn =
      Runtime.Churn.uniform
        (Runtime.Churn.plan ~remove:0.08 ~max_downtime:4 ())
        ~seed
    in
    let supervisor =
      { Runtime.Supervisor.default with max_retries = 3; seed = seed * 7 }
    in
    let ctx = Printf.sprintf "random:14:%d" seed in
    let popped = ref [] in
    let ro = Obs.create ~sample_every:5 () in
    let recorded =
      C.run ~scheduler:(Scheduler.Random (Prng.create (seed * 31))) ~faults
        ~vfaults ~churn ~supervisor ~obs:ro
        ~on_pop:(fun s -> popped := s :: !popped)
        g
    in
    let order = List.rev !popped in
    Alcotest.(check int)
      (ctx ^ ": one pop per delivery")
      recorded.E.deliveries (List.length order);
    let co = Obs.create ~sample_every:5 () in
    let fo = Obs.create ~sample_every:5 () in
    let cr =
      C.run ~scheduler:(Scheduler.Replay order) ~faults ~vfaults ~churn
        ~supervisor ~obs:co g
    in
    let fr =
      Fl.run ~scheduler:(Scheduler.Replay order) ~faults ~vfaults ~churn
        ~supervisor ~obs:fo g
    in
    same_reports ~ctx:(ctx ^ "/classic replay") digest recorded cr;
    same_reports ~ctx:(ctx ^ "/flat replay") digest recorded fr;
    same_obs ~ctx:(ctx ^ "/classic replay") ro co;
    same_obs ~ctx:(ctx ^ "/flat replay") ro fo
  done

(* {1 The flood fast path} *)

(* Layered graphs with obs on: the probe certifies flooding, the int-ring
   loop runs, and everything still reconciles with classic — including
   Step_limit and Cancelled endings. *)
let flood_fast_parity () =
  let module C = Runtime.Engine.Make (Anonet.Flood) in
  let module Fl = Flatcore.Engine.Make (Anonet.Flood) in
  for seed = 1 to 6 do
    let g = F.random_layered_large (Prng.create seed) ~target_edges:1_500 in
    let ctx = Printf.sprintf "layered/seed-%d" seed in
    let co = Obs.create ~sample_every:13 () in
    let fo = Obs.create ~sample_every:13 () in
    let cr = C.run ~payload_bits:3 ~obs:co g in
    let fr = Fl.run ~payload_bits:3 ~obs:fo g in
    same_reports ~ctx Anonet.Flood.digest cr fr;
    same_obs ~ctx co fo;
    Alcotest.check H.outcome (ctx ^ ": quiescent") E.Quiescent fr.E.outcome;
    Alcotest.(check int)
      (ctx ^ ": one delivery per edge")
      (Digraph.n_edges g) fr.E.deliveries;
    (* Truncated endings leave identical in-flight accounting. *)
    let limit = Digraph.n_edges g / 3 in
    let cr = C.run ~step_limit:limit g and fr = Fl.run ~step_limit:limit g in
    same_reports ~ctx:(ctx ^ "/step-limit") Anonet.Flood.digest cr fr;
    Alcotest.check H.outcome
      (ctx ^ ": step-limited")
      E.Step_limit fr.E.outcome;
    let cancelling () =
      let polls = ref 0 in
      fun () ->
        incr polls;
        !polls > 40
    in
    let cr = C.run ~stop:(cancelling ()) g
    and fr = Fl.run ~stop:(cancelling ()) g in
    same_reports ~ctx:(ctx ^ "/cancel") Anonet.Flood.digest cr fr;
    Alcotest.check H.outcome (ctx ^ ": cancelled") E.Cancelled fr.E.outcome
  done

(* Amnesiac flood also floods — but its messages carry a round tag, so the
   certificate must {e reject} it and land on the generic path (distinct
   messages per port would break the one-slot argument).  Spot-check the
   reports still agree. *)
let non_flood_stays_generic () =
  let module C = Runtime.Engine.Make (Anonet.Counting) in
  let module Fl = Flatcore.Engine.Make (Anonet.Counting) in
  let g =
    F.random_digraph (Prng.create 11) ~n:20 ~extra_edges:15 ~back_edges:5
      ~t_edge_prob:0.3
  in
  let cr = C.run g and fr = Fl.run g in
  same_reports ~ctx:"counting/plain" Anonet.Counting.digest cr fr

let () =
  Alcotest.run "flatcore"
    [
      ( "csr",
        [
          Alcotest.test_case "multigraph ports + round-trips" `Quick
            csr_multigraph;
          H.qcheck_to_alcotest ~count:60 "csr arrays == digraph on random graphs"
            H.arb_digraph (fun g ->
              csr_matches g;
              true);
        ] );
      ("equivalence", equivalence_tests);
      ("chaos", chaos_tests);
      ("events", stream_tests);
      ( "replay",
        [
          Alcotest.test_case "replay parity: redundant general, every fate"
            `Quick replay_parity;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "flood fast path == classic" `Quick
            flood_fast_parity;
          Alcotest.test_case "non-flood protocols stay generic" `Quick
            non_flood_stays_generic;
        ] );
    ]
