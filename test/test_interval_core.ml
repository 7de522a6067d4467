module Is = Intervals.Iset
module IC = Anonet.Interval_core
open Helpers

(* Drive a single vertex's state machine directly with arbitrary inputs and
   check the paper's structural properties: state-monotonicity, conservation
   (nothing received is ever lost), and delta discipline. *)

let arb_inputs =
  QCheck.(
    pair (int_range 0 5)
      (list_of_size (QCheck.Gen.int_range 1 6) (pair arb_iset arb_iset)))

let feed ~assign_label ~out_degree inputs =
  List.fold_left
    (fun (st, log) (alpha, beta) ->
      let st', outs = IC.step ~assign_label st ~alpha ~beta in
      (st', (st, st', outs) :: log))
    (IC.create ~out_degree, [])
    inputs

let prop_monotone assign_label =
  qcheck_to_alcotest ~count:300
    (Printf.sprintf "state-monotonicity (labels=%b)" assign_label)
    arb_inputs
    (fun (d, inputs) ->
      let _, log = feed ~assign_label ~out_degree:d inputs in
      List.for_all (fun (prev, next, _) -> IC.invariant ~prev next) log)

let prop_conservation assign_label =
  qcheck_to_alcotest ~count:300
    (Printf.sprintf "nothing lost: received subset of state (labels=%b)" assign_label)
    arb_inputs
    (fun (d, inputs) ->
      let final, _ = feed ~assign_label ~out_degree:d inputs in
      let received =
        List.fold_left
          (fun acc (a, b) -> Is.union acc (Is.union a b))
          Is.empty inputs
      in
      let held =
        Array.fold_left Is.union
          (Is.union final.IC.beta final.IC.label)
          final.IC.alpha
      in
      (* Out-degree-0 vertices absorb into seen_alpha/beta/label only. *)
      let held = Is.union held (Is.union final.IC.seen_alpha final.IC.beta) in
      Is.subset received held)

let prop_sends_are_deltas assign_label =
  qcheck_to_alcotest ~count:300
    (Printf.sprintf "alpha sends disjoint from previously sent (labels=%b)"
       assign_label)
    arb_inputs
    (fun (d, inputs) ->
      let _, log = feed ~assign_label ~out_degree:d inputs in
      List.for_all
        (fun ((prev : IC.t), _, outs) ->
          List.for_all
            (fun (o : IC.outgoing) ->
              Is.disjoint o.d_alpha prev.IC.alpha.(o.port)
              && Is.disjoint o.d_beta prev.IC.beta)
            outs)
        log)

let prop_alpha_send_recorded assign_label =
  qcheck_to_alcotest ~count:300
    (Printf.sprintf "every alpha send is recorded in state (labels=%b)" assign_label)
    arb_inputs
    (fun (d, inputs) ->
      let _, log = feed ~assign_label ~out_degree:d inputs in
      List.for_all
        (fun (_, (next : IC.t), outs) ->
          List.for_all
            (fun (o : IC.outgoing) ->
              Is.subset o.d_alpha next.IC.alpha.(o.port)
              && Is.subset o.d_beta next.IC.beta)
            outs)
        log)

let prop_label_only_in_label_mode =
  qcheck_to_alcotest ~count:300 "labels appear only in labeling mode" arb_inputs
    (fun (d, inputs) ->
      let final_plain, _ = feed ~assign_label:false ~out_degree:d inputs in
      Is.is_empty final_plain.IC.label)

let prop_label_nonempty_once_initialized =
  qcheck_to_alcotest ~count:300 "labeling init yields non-empty label" arb_inputs
    (fun (d, inputs) ->
      let final, _ = feed ~assign_label:true ~out_degree:d inputs in
      (not final.IC.initialized) || not (Is.is_empty final.IC.label))

(* Deterministic unit checks. *)

let unit_msg = (Is.unit, Is.empty)

let test_first_receive_partitions () =
  let st = IC.create ~out_degree:3 in
  let st', outs = IC.step ~assign_label:false st ~alpha:(fst unit_msg) ~beta:Is.empty in
  Alcotest.(check bool) "initialized" true st'.IC.initialized;
  Alcotest.(check int) "one send per port" 3 (List.length outs);
  let total =
    List.fold_left (fun acc (o : IC.outgoing) -> Is.union acc o.d_alpha) Is.empty outs
  in
  Alcotest.check iset "sends cover everything received" Is.unit total

let test_labeling_keeps_part () =
  let st = IC.create ~out_degree:3 in
  let st', outs = IC.step ~assign_label:true st ~alpha:Is.unit ~beta:Is.empty in
  Alcotest.(check bool) "label non-empty" false (Is.is_empty st'.IC.label);
  let sent =
    List.fold_left (fun acc (o : IC.outgoing) -> Is.union acc o.d_alpha) Is.empty outs
  in
  Alcotest.(check bool) "label disjoint from sends" true (Is.disjoint st'.IC.label sent);
  Alcotest.check iset "label + sends = received" Is.unit (Is.union st'.IC.label sent);
  Alcotest.(check bool) "label beta-flooded" true (Is.subset st'.IC.label st'.IC.beta)

let test_cycle_detection () =
  let st = IC.create ~out_degree:1 in
  (* First receive: everything forwarded on the only port. *)
  let st, outs1 = IC.step ~assign_label:false st ~alpha:Is.unit ~beta:Is.empty in
  Alcotest.(check int) "forwarded" 1 (List.length outs1);
  (* The same commodity comes back: must be diverted to beta, not resent. *)
  let st, outs2 = IC.step ~assign_label:false st ~alpha:Is.unit ~beta:Is.empty in
  Alcotest.check iset "cycle recorded in beta" Is.unit st.IC.beta;
  List.iter
    (fun (o : IC.outgoing) ->
      Alcotest.(check bool) "no alpha resend" true (Is.is_empty o.d_alpha);
      Alcotest.check iset "beta delta flooded" Is.unit o.d_beta)
    outs2;
  Alcotest.(check int) "beta flood goes out" 1 (List.length outs2)

let test_beta_only_before_init () =
  let st = IC.create ~out_degree:2 in
  let half = Is.interval Exact.Dyadic.zero Exact.Dyadic.half in
  let st, outs = IC.step ~assign_label:false st ~alpha:Is.empty ~beta:half in
  Alcotest.(check bool) "still uninitialized" false st.IC.initialized;
  Alcotest.(check int) "beta relayed on both ports" 2 (List.length outs);
  (* Now the real commodity arrives and is partitioned over both ports. *)
  let st, outs = IC.step ~assign_label:false st ~alpha:Is.unit ~beta:Is.empty in
  Alcotest.(check bool) "initialized now" true st.IC.initialized;
  Alcotest.(check int) "both ports served" 2 (List.length outs)

let test_quiet_when_nothing_new () =
  let st = IC.create ~out_degree:2 in
  let st, _ = IC.step ~assign_label:false st ~alpha:Is.unit ~beta:Is.empty in
  (* Re-delivering a beta subset already known: g = phi on every port. *)
  let st', outs = IC.step ~assign_label:false st ~alpha:Is.empty ~beta:Is.empty in
  Alcotest.(check int) "silent" 0 (List.length outs);
  Alcotest.(check bool) "state unchanged" true (IC.invariant ~prev:st st')

let test_accepting () =
  let st = IC.create ~out_degree:0 in
  Alcotest.(check bool) "initially not accepting" false (IC.accepting st);
  let st, _ = IC.step ~assign_label:false st ~alpha:Is.unit ~beta:Is.empty in
  Alcotest.(check bool) "accepting after full coverage" true (IC.accepting st);
  let st2 = IC.create ~out_degree:0 in
  let half = Is.interval Exact.Dyadic.zero Exact.Dyadic.half in
  let st2, _ = IC.step ~assign_label:false st2 ~alpha:half ~beta:Is.empty in
  Alcotest.(check bool) "half coverage not accepting" false (IC.accepting st2)

(* At an internal vertex [seen_alpha] is what an arrival is split against
   (new alpha vs detected cycle), so it must stay the label plus every
   port's alpha.  Each drift keeps the cached size consistent with the
   drifted set, so only that identity can fail. *)
let test_seen_alpha_drift_caught () =
  let quarter = Is.interval Exact.Dyadic.zero (Exact.Dyadic.pow2 (-2)) in
  List.iter
    (fun assign_label ->
      let st = IC.create ~out_degree:2 in
      let st, _ = IC.step ~assign_label st ~alpha:Is.unit ~beta:Is.empty in
      let st, _ = IC.step ~assign_label st ~alpha:quarter ~beta:Is.empty in
      Alcotest.(check bool) "consistent state passes" true (IC.invariant st);
      let drifted seen_alpha =
        {
          st with
          IC.seen_alpha;
          size =
            IC.size_bits st
            - Is.size_bits st.IC.seen_alpha
            + Is.size_bits seen_alpha;
        }
      in
      List.iter
        (fun (what, seen_alpha) ->
          Alcotest.(check bool) what false (IC.invariant (drifted seen_alpha)))
        [
          ("stale seen_alpha (empty) fails", Is.empty);
          ("seen_alpha missing a piece fails", Is.diff st.IC.seen_alpha quarter);
          ( "seen_alpha with extra content fails",
            Is.union st.IC.seen_alpha
              (Is.interval Exact.Dyadic.one (Exact.Dyadic.of_int 2)) );
        ])
    [ false; true ]

(* The cached size is what every interval protocol reports as
   [state_bits]: a size left over from an earlier state, or off by one bit,
   must fail [invariant]. *)
let test_size_drift_caught () =
  let quarter = Is.interval Exact.Dyadic.zero (Exact.Dyadic.pow2 (-2)) in
  let top = Is.interval (Exact.Dyadic.make (Bignat.of_int 3) 2) Exact.Dyadic.one in
  List.iter
    (fun assign_label ->
      let st0 = IC.create ~out_degree:2 in
      let st1, _ = IC.step ~assign_label st0 ~alpha:Is.unit ~beta:Is.empty in
      let st2, _ = IC.step ~assign_label st1 ~alpha:quarter ~beta:top in
      Alcotest.(check bool) "consistent cache passes" true (IC.invariant st2);
      Alcotest.(check bool) "the size moved" true (IC.size_bits st1 <> IC.size_bits st2);
      List.iter
        (fun (what, size) ->
          Alcotest.(check bool) what false (IC.invariant { st2 with IC.size }))
        [
          ("stale size (initial) fails", IC.size_bits st0);
          ("stale size (one step behind) fails", IC.size_bits st1);
          ("size one bit high fails", IC.size_bits st2 + 1);
        ])
    [ false; true ]

let () =
  Alcotest.run "interval-core"
    [
      ( "units",
        [
          Alcotest.test_case "first receive partitions" `Quick
            test_first_receive_partitions;
          Alcotest.test_case "labeling keeps a part" `Quick test_labeling_keeps_part;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "beta before init" `Quick test_beta_only_before_init;
          Alcotest.test_case "quiet when nothing new" `Quick test_quiet_when_nothing_new;
          Alcotest.test_case "accepting" `Quick test_accepting;
          Alcotest.test_case "seen_alpha drift caught" `Quick
            test_seen_alpha_drift_caught;
          Alcotest.test_case "size drift caught" `Quick test_size_drift_caught;
        ] );
      ( "properties",
        [
          prop_monotone false;
          prop_monotone true;
          prop_conservation false;
          prop_conservation true;
          prop_sends_are_deltas false;
          prop_sends_are_deltas true;
          prop_alpha_send_recorded false;
          prop_alpha_send_recorded true;
          prop_label_only_in_label_mode;
          prop_label_nonempty_once_initialized;
        ] );
    ]
