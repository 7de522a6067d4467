(* The flat execution engine: Runtime.Engine semantics over a CSR graph,
   an arena of encoded message slots, and — when a pre-run probe certifies
   the protocol as flood-shaped — a specialized loop that delivers messages
   as pure int arithmetic.

   The contract is Engine_sig.S: for equal inputs, every field of the
   returned report and every deterministic [engine.*] Obs counter is
   byte-for-byte identical to [Runtime.Engine.Make], which
   [test/test_flatcore.ml] property-tests across protocols x graph
   families x faults x vfaults x churn x schedulers.

   Only the layout lives here.  The generic path is the classic engine's
   own delivery loop ([E.Make.deliver]: pools, fates, hooks, journal and
   telemetry), handed the CSR arrays as its edge tables and the arena as
   its wire: a message is encoded once per physically-distinct value at
   send time (a pointer-equality memo catches a protocol re-sending one
   value on every port) into a bump arena, so a delivery charges bits and
   dedups symbols with two int loads and a byte flag instead of an encode,
   a key string and a table probe.  The flood fast path keeps the whole
   in-flight pool as one int array of edge indices. *)

module E = Runtime.Engine
module Scheduler = Runtime.Scheduler
module Faults = Runtime.Faults
module Vfaults = Runtime.Vfaults
module Churn = Runtime.Churn

(* {1 The message arena}

   One slot per distinct wire encoding: the bytes live in a single growing
   buffer, the per-slot tables give offset and exact bit length, and
   [seen] marks slots whose encoding crossed an edge at least once — the
   flat representation of the classic engine's distinct-symbol table. *)

type arena = {
  mutable buf : Bytes.t;
  mutable used : int;
  mutable off : int array;  (* per slot: byte offset into [buf] *)
  mutable len_bits : int array;  (* per slot: exact encoded length *)
  mutable seen : Bytes.t;  (* per slot: '\001' once delivered across an edge *)
  mutable n_slots : int;
  mutable distinct : int;  (* slots marked seen *)
  index : (string, int) Hashtbl.t;  (* encoding key -> slot *)
}

let arena_create () =
  {
    buf = Bytes.create 256;
    used = 0;
    off = Array.make 16 0;
    len_bits = Array.make 16 0;
    seen = Bytes.make 16 '\000';
    n_slots = 0;
    distinct = 0;
    index = Hashtbl.create 64;
  }

let arena_add a bytes len_bits =
  let blen = String.length bytes in
  if a.used + blen > Bytes.length a.buf then begin
    let cap = Stdlib.max (a.used + blen) (2 * Bytes.length a.buf) in
    let bigger = Bytes.create cap in
    Bytes.blit a.buf 0 bigger 0 a.used;
    a.buf <- bigger
  end;
  Bytes.blit_string bytes 0 a.buf a.used blen;
  if a.n_slots = Array.length a.off then begin
    let cap = 2 * a.n_slots in
    let grow arr = Array.append arr (Array.make a.n_slots 0) in
    a.off <- grow a.off;
    a.len_bits <- grow a.len_bits;
    let seen = Bytes.make cap '\000' in
    Bytes.blit a.seen 0 seen 0 a.n_slots;
    a.seen <- seen
  end;
  let slot = a.n_slots in
  a.off.(slot) <- a.used;
  a.len_bits.(slot) <- len_bits;
  a.used <- a.used + blen;
  a.n_slots <- slot + 1;
  slot

(* The stored encoding, re-materialized as a string (corrupt/verify paths
   only — never on the fault-free hot path). *)
let arena_string a slot =
  Bytes.sub_string a.buf a.off.(slot) ((a.len_bits.(slot) + 7) / 8)

let arena_mark_seen a slot =
  if Bytes.get a.seen slot = '\000' then begin
    Bytes.set a.seen slot '\001';
    a.distinct <- a.distinct + 1
  end

module Make (P : Runtime.Protocol_intf.PROTOCOL) = struct
  type state = P.state
  type message = P.message

  module Loop = E.Make (P)

  (* {1 The flood certificate}

     The fast path replaces [P.receive] on already-saturated vertices with
     nothing at all, which is sound only for protocols whose behavior it
     can certify up front:

     - the root emits one physically-shared message value [m0], and every
       send any receive ever produces is pointer-equal to it (checked live
       on each executed receive — a pointer compare per send);
     - from the state one receive of [m0] produces, any further receive of
       [m0] on any in-port returns that very state (pointer-equal) and no
       sends — the vertex is {e absorbing}.

     Absorption is probed per distinct (out_degree, in_degree) pair over
     every in-port, assuming only that [receive] is a pure function of its
     arguments — the same purity the classic engine already relies on to
     share checkpoint snapshots.  Probing is O(sum in_degree^2) over the
     distinct degree pairs; a budget keeps pathological degree profiles on
     the generic path instead. *)
  let certify_flood csr =
    let od_s = Csr.out_degree csr (Csr.source csr) in
    match P.root_emit ~out_degree:od_s with
    | [] -> None
    | (_, m0) :: _ as emits ->
        if not (List.for_all (fun (_, m) -> m == m0) emits) then None
        else begin
          let n = Csr.n_vertices csr and m = Csr.n_edges csr in
          let pairs = Hashtbl.create 16 in
          for v = 0 to n - 1 do
            let idg = Csr.in_degree csr v in
            if idg > 0 then Hashtbl.replace pairs (Csr.out_degree csr v, idg) ()
          done;
          let budget =
            Hashtbl.fold (fun (_, idg) () acc -> acc + (idg * (idg + 1))) pairs 0
          in
          if budget > (4 * m) + 4096 then None
          else begin
            let ok = ref true in
            let check_pair (od, idg) () =
              if !ok then begin
                let st0 = P.initial_state ~out_degree:od ~in_degree:idg in
                for i = 0 to idg - 1 do
                  if !ok then begin
                    let st1, sends =
                      P.receive ~out_degree:od ~in_degree:idg st0 m0 ~in_port:i
                    in
                    if not (List.for_all (fun (_, s) -> s == m0) sends) then
                      ok := false
                    else
                      for i' = 0 to idg - 1 do
                        if !ok then
                          match
                            P.receive ~out_degree:od ~in_degree:idg st1 m0
                              ~in_port:i'
                          with
                          | st2, [] when st2 == st1 -> ()
                          | _ -> ok := false
                      done
                  end
                done
              end
            in
            Hashtbl.iter check_pair pairs;
            if !ok then Some (m0, emits) else None
          end
        end

  (* {1 The fast path}

     Fault-free FIFO only: the pool degenerates to one int array of edge
     indices consumed left to right (send order is delivery order, so the
     k-th pop is seq k), and a vertex's first receive — executed for real,
     so final states match the classic run bit-for-bit — flips it to
     absorbed, after which its deliveries touch two arrays and nothing
     else.  Total pushes are bounded by [root emissions + m] because an
     absorbing vertex emits at most once. *)
  let run_flood csr ~payload_bits ~step_limit ~stop ~oh ~lineage (m0 : P.message)
      (emits : (int * P.message) list) =
    let n = Csr.n_vertices csr and ne = Csr.n_edges csr in
    let s = Csr.source csr and t = Csr.terminal csr in
    let row = csr.Csr.row
    and head_arr = csr.Csr.head
    and tgt_port = csr.Csr.tgt_port in
    let bpm =
      let w = Bitio.Bit_writer.create () in
      P.encode w m0;
      Bitio.Bit_writer.length w + payload_bits
    in
    let states =
      Array.init n (fun v ->
          P.initial_state
            ~out_degree:(Csr.out_degree csr v)
            ~in_degree:(Csr.in_degree csr v))
    in
    let visited = Array.make n false in
    let absorbed = Bytes.make n '\000' in
    let edge_messages = Array.make (Stdlib.max ne 1) 0 in
    let deliveries = ref 0 in
    let n_visited = ref 0 in
    let max_state_bits = ref 0 in
    (* One push per root emission plus at most one emission burst per
       vertex; grown defensively since the certificate does not bound a
       burst's length. *)
    let ring = ref (Array.make (List.length emits + ne + 1) 0) in
    let tail = ref 0 and head = ref 0 in
    let max_in_flight = ref 0 in
    (* Lineage rides in the unused upper bits of the edge ring itself:
       each pushed slot packs [edge lor (parent_id lsl journal_shift)]
       (edge and delivery counts are both far below 2^31).  With no
       recorder [lin_parent] stays 0, the pack is the identity, and the
       bare fast path pays one OR per push and one AND per pop. *)
    let lin_on = lineage <> None in
    (match lineage with
    | Some l -> Obs.Lineage.bind l ~n_vertices:n ~n_edges:ne
    | None -> ());
    let lin_parent = ref 0 in
    let stop_now = match stop with None -> (fun () -> false) | Some f -> f in
    let until_sample =
      ref (match oh with Some h -> h.E.oh_sample_every | None -> max_int)
    in
    let time_receive = ref false in
    (* [bits_total] is passed in because the classic engine samples
       [engine.total_bits] {e before} charging the current delivery.  Every
       pop is a delivery here, so the cut residual is identically 0 —
       sampled anyway to keep the reconciliation series present. *)
    let obs_sample h ~bits_total =
      E.sample_obs h ~in_flight:(!tail - !head) ~n_visited:!n_visited
        ~residual:0 ~deliveries:!deliveries ~total_bits:bits_total
    in
    (match oh with
    | Some h -> Obs.Timeline.begin_span h.E.oh_timeline ~track:0 "engine.run"
    | None -> ());
    let push_edge e =
      let r = !ring in
      let r =
        if !tail = Array.length r then begin
          let bigger = Array.make (2 * Array.length r) 0 in
          Array.blit r 0 bigger 0 !tail;
          ring := bigger;
          bigger
        end
        else r
      in
      r.(!tail) <- e lor (!lin_parent lsl Obs.Lineage.journal_shift);
      incr tail;
      let fl = !tail - !head in
      if fl > !max_in_flight then max_in_flight := fl
    in
    List.iter
      (fun (j, _) ->
        (match oh with Some h -> Obs.Registry.incr h.E.c_sends | None -> ());
        push_edge (row.(s) + j))
      emits;
    visited.(s) <- true;
    incr n_visited;
    let outcome = ref E.Quiescent in
    let running = ref true in
    while !running do
      if !deliveries >= step_limit then begin
        outcome := E.Step_limit;
        running := false
      end
      else if stop_now () then begin
        outcome := E.Cancelled;
        running := false
      end
      else if !head = !tail then begin
        outcome := (if P.accepting states.(t) then E.Terminated else E.Quiescent);
        running := false
      end
      else begin
        let e =
          Array.unsafe_get !ring !head
          land ((1 lsl Obs.Lineage.journal_shift) - 1)
        in
        incr head;
        incr deliveries;
        (match oh with
        | Some h ->
            Obs.Registry.incr h.E.c_deliveries;
            Obs.Registry.add h.E.c_bits bpm;
            Obs.Registry.observe h.E.h_message_bits bpm;
            decr until_sample;
            if !until_sample <= 0 then begin
              until_sample := h.E.oh_sample_every;
              time_receive := true;
              obs_sample h ~bits_total:((!deliveries - 1) * bpm)
            end
        | None -> ());
        Array.unsafe_set edge_messages e (Array.unsafe_get edge_messages e + 1);
        let tv = Array.unsafe_get head_arr e in
        if Bytes.unsafe_get absorbed tv = '\001' then begin
          (* The classic engine would run a receive returning the same
             state and no sends; the sampled-receive histogram still gets
             its observation so counts reconcile. *)
          match oh with
          | Some h when !time_receive ->
              time_receive := false;
              Obs.Registry.observe h.E.h_receive_ns 0
          | _ -> ()
        end
        else begin
          if not visited.(tv) then begin
            visited.(tv) <- true;
            incr n_visited
          end;
          let t0 =
            match oh with
            | Some h when !time_receive -> Obs.Timeline.now h.E.oh_timeline
            | _ -> 0.0
          in
          let st', sends =
            P.receive
              ~out_degree:(Csr.out_degree csr tv)
              ~in_degree:(Csr.in_degree csr tv)
              states.(tv) m0 ~in_port:(Array.unsafe_get tgt_port e)
          in
          (match oh with
          | Some h when !time_receive ->
              time_receive := false;
              let ns =
                int_of_float ((Obs.Timeline.now h.E.oh_timeline -. t0) *. 1e9)
              in
              Obs.Registry.add h.E.c_receive_ns ns;
              Obs.Registry.observe h.E.h_receive_ns ns
          | _ -> ());
          states.(tv) <- st';
          let b = P.state_bits st' in
          if b > !max_state_bits then max_state_bits := b;
          Bytes.unsafe_set absorbed tv '\001';
          if lin_on then lin_parent := !deliveries;
          let base = row.(tv) in
          List.iter
            (fun (j, m) ->
              if m != m0 then
                failwith "Flatcore.Engine: protocol violated its flood certificate";
              (match oh with Some h -> Obs.Registry.incr h.E.c_sends | None -> ());
              push_edge (base + j))
            sends;
          if tv = t && P.accepting st' then begin
            outcome := E.Terminated;
            running := false
          end
        end
      end
    done;
    (* The ring never reuses a slot — [head] only advances, and growth
       blits the whole [0, tail) prefix — so slots [0, head) are the pop
       journal in delivery order (id = slot + 1).  Hand the rings to the
       recorder wholesale: they are dead here, and it replays them into
       its aggregates lazily on first query, so the ~100ns/pop loop
       above paid only the two ring stores per push. *)
    (match lineage with
    | Some l ->
        Obs.Lineage.note_journal l ~packed:!ring ~heads:head_arr
          ~count:!head ~track:0
    | None -> ());
    (match oh with
    | Some h ->
        obs_sample h ~bits_total:(!deliveries * bpm);
        Obs.Timeline.end_span h.E.oh_timeline ~track:0 "engine.run"
    | None -> ());
    let edge_bits = Array.map (fun c -> c * bpm) edge_messages in
    {
      E.outcome = !outcome;
      deliveries = !deliveries;
      total_bits = !deliveries * bpm;
      max_edge_bits = Array.fold_left Stdlib.max 0 edge_bits;
      max_message_bits = (if !deliveries > 0 then bpm else 0);
      max_state_bits = !max_state_bits;
      max_in_flight = !max_in_flight;
      final_in_flight = !tail - !head;
      distinct_messages = (if !deliveries > 0 then 1 else 0);
      edge_messages;
      edge_bits;
      visited;
      states;
      fault_stats = E.no_faults_stats;
      vfault_stats = E.no_vfaults_stats;
      churn_stats = E.no_churn_stats;
    }

  (* {1 The generic path}

     The arena as the shared loop's wire: the slot is resolved at send, so
     a crossing reads its bit length and marks its symbol with no encode. *)
  let arena_wire () =
    let arena = arena_create () in
    (* Encode-once memo: protocols overwhelmingly re-send one physical
       message value (flood's token, a just-built commodity fanned over
       every port), so most sends resolve their slot with one pointer
       compare. *)
    let memo : (P.message * int) option ref = ref None in
    let slot msg =
      match !memo with
      | Some (m, s) when m == msg -> s
      | _ ->
          let w = Bitio.Bit_writer.create () in
          P.encode w msg;
          let len_bits = Bitio.Bit_writer.length w in
          let bytes = Bitio.Bit_writer.to_string w in
          let key = string_of_int len_bits ^ ":" ^ bytes in
          let slot =
            match Hashtbl.find_opt arena.index key with
            | Some s -> s
            | None ->
                let s = arena_add arena bytes len_bits in
                Hashtbl.add arena.index key s;
                s
          in
          memo := Some (msg, slot);
          slot
    in
    {
      E.slot;
      cross =
        (fun slot _ ->
          arena_mark_seen arena slot;
          arena.len_bits.(slot));
      encoding = (fun slot _ -> arena_string arena slot);
      distinct = (fun () -> arena.distinct);
    }

  let run_csr ?(scheduler = Scheduler.Fifo) ?(payload_bits = 0)
      ?(step_limit = 10_000_000) ?(faults = Faults.none)
      ?(vfaults = Vfaults.none) ?(churn = Churn.none) ?supervisor
      ?(verify_codec = false) ?stop ?obs ?lineage ?on_deliver ?on_pop
      ?on_undelivered csr =
    let oh = Option.map E.obs_hooks obs in
    let gc0 = E.gc_start obs in
    let plain =
      (match scheduler with Scheduler.Fifo -> true | _ -> false)
      && Faults.is_none faults && Vfaults.is_none vfaults
      && Churn.is_none churn && supervisor = None && not verify_codec
      && on_deliver = None && on_pop = None && on_undelivered = None
    in
    let report =
      match if plain then certify_flood csr else None with
      | Some (m0, emits) ->
          run_flood csr ~payload_bits ~step_limit ~stop ~oh ~lineage m0 emits
      | None ->
          Loop.deliver ~scheduler ~payload_bits ~step_limit ~faults ~vfaults
            ~churn ~supervisor ~verify_codec ~stop ~oh ~lineage ~on_deliver
            ~on_pop ~on_undelivered
            ~edges:
              {
                E.row = csr.Csr.row;
                head = csr.Csr.head;
                tport = csr.Csr.tgt_port;
                src = csr.Csr.src;
              }
            ~wire:(arena_wire ()) (Csr.digraph csr)
    in
    E.gc_finish obs gc0;
    report

  let run ?scheduler ?payload_bits ?step_limit ?faults ?vfaults ?churn
      ?supervisor ?verify_codec ?stop ?obs ?lineage ?on_deliver ?on_pop
      ?on_undelivered g =
    run_csr ?scheduler ?payload_bits ?step_limit ?faults ?vfaults ?churn
      ?supervisor ?verify_codec ?stop ?obs ?lineage ?on_deliver ?on_pop
      ?on_undelivered (Csr.of_digraph g)
end
