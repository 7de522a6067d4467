type outcome = Terminated | Quiescent | Step_limit | Cancelled

type fault_stats = {
  dropped_copies : int;
  extra_copies : int;
  delayed_copies : int;
  corrupted_deliveries : int;
  garbled_drops : int;
  checksum_rejects : int;
  dead_edges : int list;
}

let no_faults_stats =
  {
    dropped_copies = 0;
    extra_copies = 0;
    delayed_copies = 0;
    corrupted_deliveries = 0;
    garbled_drops = 0;
    checksum_rejects = 0;
    dead_edges = [];
  }

type vertex_fault_stats = {
  crashes : int;
  restarts : int;
  lost_state_bits : int;
  down_drops : int;
  stuttered : int;
  stopped_vertices : int list;
  checkpoints : int;
  replayed : int;
}

let no_vfaults_stats =
  {
    crashes = 0;
    restarts = 0;
    lost_state_bits = 0;
    down_drops = 0;
    stuttered = 0;
    stopped_vertices = [];
    checkpoints = 0;
    replayed = 0;
  }

type churn_stats = {
  adds : int;
  removes : int;
  heals : int;
  messages_lost_in_flight : int;
  window_violations : int;
}

let no_churn_stats =
  {
    adds = 0;
    removes = 0;
    heals = 0;
    messages_lost_in_flight = 0;
    window_violations = 0;
  }

type 'state report = {
  outcome : outcome;
  deliveries : int;
  total_bits : int;
  max_edge_bits : int;
  max_message_bits : int;
  max_state_bits : int;
  max_in_flight : int;
  final_in_flight : int;
  distinct_messages : int;
  edge_messages : int array;
  edge_bits : int array;
  visited : bool array;
  states : 'state array;
  fault_stats : fault_stats;
  vfault_stats : vertex_fault_stats;
  churn_stats : churn_stats;
}

exception Codec_mismatch of string

type event = {
  step : int;
  seq : int;
  from_vertex : Digraph.vertex;
  from_port : int;
  to_vertex : Digraph.vertex;
  to_port : int;
  bits : int;
}

(* Telemetry cells resolved once per run (registration is the only locked
   operation); per-delivery updates are plain stores. *)
type obs_hooks = {
  oh_timeline : Obs.Timeline.t;
  oh_sample_every : int;
  c_deliveries : Obs.Registry.counter;
  c_bits : Obs.Registry.counter;
  c_sends : Obs.Registry.counter;
  c_corrupted : Obs.Registry.counter;
  c_garbled : Obs.Registry.counter;
  c_dropped : Obs.Registry.counter;
  c_extra : Obs.Registry.counter;
  c_delayed : Obs.Registry.counter;
  c_checksum_rejects : Obs.Registry.counter;
  c_crashes : Obs.Registry.counter;
  c_restarts : Obs.Registry.counter;
  c_lost_state_bits : Obs.Registry.counter;
  c_down_drops : Obs.Registry.counter;
  c_stuttered : Obs.Registry.counter;
  c_checkpoints : Obs.Registry.counter;
  c_replayed : Obs.Registry.counter;
  c_churn_adds : Obs.Registry.counter;
  c_churn_removes : Obs.Registry.counter;
  c_churn_heals : Obs.Registry.counter;
  c_churn_lost : Obs.Registry.counter;
  c_churn_violations : Obs.Registry.counter;
  c_receive_ns : Obs.Registry.counter;
  h_message_bits : Obs.Registry.histogram;
  h_receive_ns : Obs.Registry.histogram;
  g_in_flight : Obs.Registry.gauge;
  g_wavefront : Obs.Registry.gauge;
  g_residual : Obs.Registry.gauge;
}

let obs_hooks (o : Obs.t) =
  let reg = o.Obs.registry in
  {
    oh_timeline = o.Obs.timeline;
    oh_sample_every = o.Obs.sample_every;
    c_deliveries = Obs.Registry.counter reg "engine.deliveries";
    c_bits = Obs.Registry.counter reg "engine.total_bits";
    c_sends = Obs.Registry.counter reg "engine.sends";
    c_corrupted = Obs.Registry.counter reg "engine.corrupted_deliveries";
    c_garbled = Obs.Registry.counter reg "engine.garbled_drops";
    c_dropped = Obs.Registry.counter reg "engine.dropped_copies";
    c_extra = Obs.Registry.counter reg "engine.extra_copies";
    c_delayed = Obs.Registry.counter reg "engine.delayed_copies";
    c_checksum_rejects = Obs.Registry.counter reg "engine.checksum_rejects";
    c_crashes = Obs.Registry.counter reg "engine.crashes";
    c_restarts = Obs.Registry.counter reg "engine.restarts";
    c_lost_state_bits = Obs.Registry.counter reg "engine.lost_state_bits";
    c_down_drops = Obs.Registry.counter reg "engine.down_drops";
    c_stuttered = Obs.Registry.counter reg "engine.stuttered";
    c_checkpoints = Obs.Registry.counter reg "engine.checkpoints";
    c_replayed = Obs.Registry.counter reg "engine.replayed";
    c_churn_adds = Obs.Registry.counter reg "engine.churn.adds";
    c_churn_removes = Obs.Registry.counter reg "engine.churn.removes";
    c_churn_heals = Obs.Registry.counter reg "engine.churn.heals";
    c_churn_lost = Obs.Registry.counter reg "engine.churn.lost_in_flight";
    c_churn_violations =
      Obs.Registry.counter reg "engine.churn.window_violations";
    c_receive_ns = Obs.Registry.counter reg "engine.receive_ns";
    h_message_bits = Obs.Registry.histogram reg "engine.message_bits";
    h_receive_ns = Obs.Registry.histogram reg "engine.receive_ns_hist";
    g_in_flight = Obs.Registry.gauge reg "engine.in_flight";
    g_wavefront = Obs.Registry.gauge reg "engine.wavefront";
    g_residual = Obs.Registry.gauge reg "engine.cut_residual";
  }

module Make (P : Protocol_intf.PROTOCOL) = struct
  type state = P.state
  type message = P.message

  type flight = {
    seq : int;
    fv : Digraph.vertex;
    fp : int;
    tv : Digraph.vertex;
    tp : int;
    edge : int;
    corrupt : bool;
    (* Causal provenance, carried by every copy: the lineage node id of
       the receive that caused this send (0 = root emission or
       supervisor retransmission) and this copy's causal depth (parent
       depth + 1; root copies have depth 1). *)
    lp : int;
    ld : int;
    msg : P.message;
  }

  (* In-flight message pool, specialized per scheduling policy.  Returns
     (push, pop, drain): [drain] empties the pool and returns whatever was
     still held, so the engine can report undelivered messages at the end of
     a run (conservation-law checks need the full cut). *)
  let make_pool scheduler =
    match (scheduler : Scheduler.t) with
    | Fifo ->
        let q = Queue.create () in
        ( (fun f -> Queue.add f q),
          (fun () -> Queue.take_opt q),
          fun () ->
            let l = List.of_seq (Queue.to_seq q) in
            Queue.clear q;
            l )
    | Lifo ->
        let st = ref [] in
        ( (fun f -> st := f :: !st),
          (fun () ->
            match !st with
            | [] -> None
            | f :: rest ->
                st := rest;
                Some f),
          fun () ->
            let l = !st in
            st := [];
            l )
    | Random g ->
        let arr = ref [||] and len = ref 0 in
        let push f =
          if !len = Array.length !arr then begin
            let cap = Stdlib.max 16 (2 * !len) in
            let bigger = Array.make cap f in
            Array.blit !arr 0 bigger 0 !len;
            arr := bigger
          end;
          !arr.(!len) <- f;
          incr len
        in
        let pop () =
          if !len = 0 then None
          else begin
            let i = Prng.int g !len in
            let f = !arr.(i) in
            decr len;
            !arr.(i) <- !arr.(!len);
            Some f
          end
        in
        let drain () =
          let l = Array.to_list (Array.sub !arr 0 !len) in
          len := 0;
          l
        in
        (push, pop, drain)
    | Edge_priority prio ->
        (* Binary min-heap on (priority, seq). *)
        let h = Binheap.create () in
        let pop () = Option.map snd (Binheap.pop h) in
        let rec drain acc =
          match pop () with None -> List.rev acc | Some f -> drain (f :: acc)
        in
        ((fun f -> Binheap.push h (prio f.edge, f.seq) f), pop, fun () -> drain [])
    | Replay order ->
        (* Deliver exactly the listed seq numbers, in order.  A listed seq
           that is not yet in flight makes the pool report empty {e without}
           consuming it: the engine's idle path then releases delay-held
           copies and fires supervisor retransmissions — the only sources
           that can still produce it — and retries.  With a faithfully
           recorded schedule the head always appears; if it never does (an
           unfaithful schedule) the run stops where the schedule left it. *)
        let pool : (int, flight) Hashtbl.t = Hashtbl.create 32 in
        let remaining = ref order in
        let push f = Hashtbl.replace pool f.seq f in
        let pop () =
          match !remaining with
          | [] -> None
          | s :: rest -> (
              match Hashtbl.find_opt pool s with
              | Some f ->
                  remaining := rest;
                  Hashtbl.remove pool s;
                  Some f
              | None -> None)
        in
        let drain () =
          let l = Hashtbl.fold (fun _ f acc -> f :: acc) pool [] in
          Hashtbl.reset pool;
          List.sort (fun a b -> compare a.seq b.seq) l
        in
        (push, pop, drain)

  (* Flip stream-bit [b] of the MSB-first packing produced by Bit_writer. *)
  let flip_bit s b =
    let bytes = Bytes.of_string s in
    let i = b / 8 in
    Bytes.set bytes i
      (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl (7 - (b mod 8)))));
    Bytes.to_string bytes

  let run ?(scheduler = Scheduler.Fifo) ?(payload_bits = 0)
      ?(step_limit = 10_000_000) ?(faults = Faults.none)
      ?(vfaults = Vfaults.none) ?(churn = Churn.none) ?supervisor
      ?(verify_codec = false) ?stop ?obs ?lineage ?on_deliver ?on_pop
      ?on_undelivered g =
    (* Cooperative cancellation: polled between deliveries, so a [true]
       stops the run at a message boundary with the accounting intact
       (undelivered copies stay counted in [final_in_flight] and reach
       [on_undelivered], exactly as under [Step_limit]). *)
    let stop_now = match stop with None -> (fun () -> false) | Some f -> f in
    let oh = Option.map (fun o -> obs_hooks o) obs in
    let gc0 =
      match obs with
      | Some _ -> Some (Gc.quick_stat (), Gc.minor_words ())
      | None -> None
    in
    let n = Digraph.n_vertices g in
    let ne = Digraph.n_edges g in
    (match lineage with
    | Some l -> Obs.Lineage.bind l ~n_vertices:n ~n_edges:ne
    | None -> ());
    (* Causal context for [send]: the lineage node id and depth of the
       receive whose sends are currently being injected.  (0, 0) outside
       a receive — root emissions and supervisor retransmissions start
       fresh chains. *)
    let lin_parent = ref 0 in
    let lin_depth = ref 0 in
    (* Pop journal: one packed [edge lor (parent lsl journal_shift)]
       slot per consumed copy, handed to the recorder wholesale at run
       end and replayed into its aggregates on first query — the run
       itself pays one store per delivery.  Depths reconstruct exactly
       because [ld] is always parent depth + 1 with retransmissions
       restarting at parent 0. *)
    let lin_on = lineage <> None in
    let lin_j = ref (if lin_on then Array.make 1024 0 else [||]) in
    let lin_n = ref 0 in
    let t = Digraph.terminal g in
    (* Dense edge -> (target vertex, target in-port), filled by walking the
       in-adjacency: [in_origin] and [edge_index] are O(1), so the table
       costs O(n + m) — not the O(m * in_degree) port search of
       [out_port_target_port]. *)
    let target = Array.make (Stdlib.max ne 1) (0, 0) in
    for v = 0 to n - 1 do
      for i = 0 to Digraph.in_degree g v - 1 do
        let u, j = Digraph.in_origin g v i in
        target.(Digraph.edge_index g u j) <- (v, i)
      done
    done;
    let states =
      Array.init n (fun v ->
          P.initial_state ~out_degree:(Digraph.out_degree g v)
            ~in_degree:(Digraph.in_degree g v))
    in
    let initial_of v =
      P.initial_state ~out_degree:(Digraph.out_degree g v)
        ~in_degree:(Digraph.in_degree g v)
    in
    let visited = Array.make n false in
    let edge_messages = Array.make (Stdlib.max ne 1) 0 in
    let edge_bits = Array.make (Stdlib.max ne 1) 0 in
    let total_bits = ref 0 in
    let max_message_bits = ref 0 in
    let deliveries = ref 0 in
    let corrupted_deliveries = ref 0 in
    let garbled_drops = ref 0 in
    let checksum_rejects = ref 0 in
    let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
    let push, pop, drain = make_pool scheduler in
    let faulty = not (Faults.is_none faults) in
    let fi = Faults.Instance.start faults in
    let vfaulty = not (Vfaults.is_none vfaults) in
    let vfi = Vfaults.Instance.start vfaults in
    let churny = not (Churn.is_none churn) in
    let ci = Churn.Instance.start churn in
    let supervised = supervisor <> None in
    (* Checkpoints: one state snapshot per vertex (initially pi0), plus the
       visited flag as of the snapshot.  States are immutable values, so
       the arrays share structure with [states] rather than copying. *)
    let need_ckpt = vfaulty || supervised in
    let ckpt = if need_ckpt then Array.copy states else [||] in
    let ckpt_visited = if need_ckpt then Array.make n false else [||] in
    let ckpt_cadence =
      match supervisor with
      | Some (c : Supervisor.config) -> c.checkpoint_every
      | None -> 1
    in
    let vdeliv = Array.make (if need_ckpt then n else 0) 0 in
    let lost_state_bits = ref 0 in
    let checkpoints = ref 0 in
    let replayed = ref 0 in
    (* Copies held back by a delay fault, keyed by (release step, seq); they
       still count as in flight. *)
    let delayed : ((int * int), flight) Binheap.t = Binheap.create () in
    let next_seq = ref 0 in
    let max_state_bits = ref 0 in
    let in_flight = ref 0 in
    let max_in_flight = ref 0 in
    let n_visited = ref 0 in
    let mark_visited v =
      if not visited.(v) then begin
        visited.(v) <- true;
        incr n_visited
      end
    in
    (* Copies that ever entered flight; [entered - deliveries - in_flight]
       is the engine's message-conservation residual, sampled as the
       [engine.cut_residual] series (always 0 unless the accounting is
       broken — a live self-check, not a tautology for readers of the
       trace). *)
    let entered = ref 0 in
    let note_state st =
      let b = P.state_bits st in
      if b > !max_state_bits then max_state_bits := b
    in
    let enter f ~delay =
      incr in_flight;
      incr entered;
      if !in_flight > !max_in_flight then max_in_flight := !in_flight;
      if delay = 0 then push f else Binheap.push delayed (!deliveries + delay, f.seq) f
    in
    (* Countdown to the next sampled delivery — one decrement/compare on
       the hot path instead of a [mod] — and a flag marking the current
       delivery as the one whose [P.receive] gets timed. *)
    let until_sample =
      ref (match oh with Some h -> h.oh_sample_every | None -> max_int)
    in
    let time_receive = ref false in
    let obs_sample () =
      match oh with
      | None -> ()
      | Some h ->
          let tl = h.oh_timeline and track = 0 in
          Obs.Registry.set h.g_in_flight !in_flight;
          Obs.Registry.set h.g_wavefront !n_visited;
          let residual = !entered - !deliveries - !in_flight in
          Obs.Registry.set h.g_residual residual;
          Obs.Timeline.sample tl ~track "engine.in_flight" (float_of_int !in_flight);
          Obs.Timeline.sample tl ~track "engine.wavefront" (float_of_int !n_visited);
          Obs.Timeline.sample tl ~track "engine.cut_residual" (float_of_int residual);
          Obs.Timeline.sample tl ~track "engine.deliveries" (float_of_int !deliveries);
          Obs.Timeline.sample tl ~track "engine.total_bits" (float_of_int !total_bits)
    in
    (* Supervisor retransmission state: the last message emitted on each
       dense edge (the only thing a feedback-free repeater can re-send),
       plus the edge's source endpoint for re-injection. *)
    let last_msg : P.message option array =
      Array.make (if supervised then Stdlib.max ne 1 else 1) None
    in
    let source_of = Array.make (if supervised then Stdlib.max ne 1 else 1) (0, 0) in
    if supervised then
      for u = 0 to n - 1 do
        Digraph.iter_out g u (fun j _ ->
            source_of.(Digraph.edge_index g u j) <- (u, j))
      done;
    let sup_prng =
      Prng.create (match supervisor with Some (c : Supervisor.config) -> c.seed | None -> 0)
    in
    let retries_left =
      ref (match supervisor with Some (c : Supervisor.config) -> c.max_retries | None -> 0)
    in
    let sup_round = ref 0 in
    let send ?(extra_delay = 0) fv fp msg =
      let edge = Digraph.edge_index g fv fp in
      let tv, tp = target.(edge) in
      (match oh with Some h -> Obs.Registry.incr h.c_sends | None -> ());
      if supervised then last_msg.(edge) <- Some msg;
      let lp = !lin_parent and ld = !lin_depth + 1 in
      if not faulty then begin
        enter
          { seq = !next_seq; fv; fp; tv; tp; edge; corrupt = false; lp; ld; msg }
          ~delay:extra_delay;
        incr next_seq
      end
      else
        List.iter
          (fun ({ delay; flip_bit = corrupt } : Faults.copy_fate) ->
            enter
              { seq = !next_seq; fv; fp; tv; tp; edge; corrupt; lp; ld; msg }
              ~delay:(delay + extra_delay);
            incr next_seq)
          (Faults.Instance.on_send fi ~edge)
    in
    (* One retransmission round: re-send the last message of every edge
       whose source is still healthy, held back by the round's backoff.
       Retransmitted copies run the same per-edge fault gauntlet as
       originals, and a {!Redundant}-wrapped receiver dedups them by wire
       encoding.  Returns whether anything was actually re-injected. *)
    let retransmit () =
      match supervisor with
      | None -> false
      | Some (cfg : Supervisor.config) ->
          (* Retransmissions start fresh causal chains: nothing "caused"
             them but the supervisor's clock. *)
          lin_parent := 0;
          lin_depth := 0;
          let sent = ref false in
          for e = 0 to ne - 1 do
            match last_msg.(e) with
            | Some msg when Vfaults.Instance.is_up vfi ~vertex:(fst source_of.(e)) ->
                let fv, fp = source_of.(e) in
                let extra_delay = Supervisor.backoff cfg sup_prng ~round:!sup_round in
                send ~extra_delay fv fp msg;
                incr replayed;
                (match oh with Some h -> Obs.Registry.incr h.c_replayed | None -> ());
                sent := true
            | _ -> ()
          done;
          incr sup_round;
          decr retries_left;
          !sent
    in
    (* Move every delay-expired copy back into the scheduler's pool. *)
    let release_due () =
      let continue = ref true in
      while !continue do
        match Binheap.peek delayed with
        | Some ((release, _), _) when release <= !deliveries -> (
            match Binheap.pop delayed with
            | Some (_, f) -> push f
            | None -> continue := false)
        | _ -> continue := false
      done
    in
    (match oh with
    | Some h -> Obs.Timeline.begin_span h.oh_timeline ~track:0 "engine.run"
    | None -> ());
    (* The root spontaneously emits sigma0. *)
    List.iter
      (fun (j, msg) -> send (Digraph.source g) j msg)
      (P.root_emit ~out_degree:(Digraph.out_degree g (Digraph.source g)));
    mark_visited (Digraph.source g);
    let outcome = ref Quiescent in
    let running = ref true in
    while !running do
      if !deliveries >= step_limit then begin
        outcome := Step_limit;
        running := false
      end
      else if stop_now () then begin
        outcome := Cancelled;
        running := false
      end
      else begin
        release_due ();
        match pop () with
        | None -> (
            (* Nothing deliverable; fast-forward idle time to the next
               delayed copy, if any. *)
            match Binheap.pop delayed with
            | Some (_, f) -> push f
            | None ->
                (* True quiescence.  If the terminal has not accepted and a
                   supervisor is installed, burn a retransmission round
                   before giving up — losses (drops, crashes, stutter) are
                   the only way a terminating protocol goes quiet early. *)
                if P.accepting states.(t) then begin
                  outcome := Terminated;
                  running := false
                end
                else if !retries_left > 0 && retransmit () then ()
                else begin
                  outcome := Quiescent;
                  running := false
                end)
        | Some f -> (
            incr deliveries;
            decr in_flight;
            (* Every consumed copy gets a journal slot — including copies
               a churn-absent edge or a down vertex swallows — so the
               node count reconciles exactly with [report.deliveries]. *)
            if lin_on then begin
              if !lin_n = Array.length !lin_j then begin
                let bigger = Array.make (2 * !lin_n) 0 in
                Array.blit !lin_j 0 bigger 0 !lin_n;
                lin_j := bigger
              end;
              Array.unsafe_set !lin_j !lin_n
                (f.edge lor (f.lp lsl Obs.Lineage.journal_shift));
              incr lin_n
            end;
            (* [on_pop] sees every consumed copy — including copies a down
               vertex swallows or a garble destroys — because a faithful
               replay schedule must re-deliver exactly those seqs to keep
               the per-vertex fault clocks aligned. *)
            (match on_pop with Some hook -> hook f.seq | None -> ());
            (* The churn fate comes first, on the edge's own offer clock: a
               copy offered on an absent edge is consumed (it occupies a
               replay-schedule slot, so [on_pop] already saw it) but never
               crossed the channel — no bits are charged to the edge, no
               symbol is recorded, and the vertex fates never fire. *)
            let cfate =
              if churny then Churn.Instance.on_offer ci ~edge:f.edge
              else Churn.Cross
            in
            if cfate <> Churn.Cross then begin
              match oh with
              | None -> ()
              | Some h ->
                  Obs.Registry.incr h.c_deliveries;
                  decr until_sample;
                  if !until_sample <= 0 then begin
                    until_sample := h.oh_sample_every;
                    obs_sample ()
                  end;
                  let tl = h.oh_timeline and track = 0 in
                  let mark kind =
                    Obs.Timeline.instant tl ~track
                      (Printf.sprintf "churn.%s:%d" kind f.edge)
                  in
                  (match cfate with
                  | Churn.Removed left ->
                      mark "remove";
                      if left = 0 then mark "heal"
                  | Churn.Back `Heal -> mark "heal"
                  | Churn.Back `Add -> mark "add"
                  | Churn.Down | Churn.Cross -> ())
            end
            else begin
            (* Charge the exact wire size. *)
            let w = Bitio.Bit_writer.create () in
            P.encode w f.msg;
            let bits = Bitio.Bit_writer.length w + payload_bits in
            (match oh with
            | Some h ->
                Obs.Registry.incr h.c_deliveries;
                Obs.Registry.add h.c_bits bits;
                Obs.Registry.observe h.h_message_bits bits;
                decr until_sample;
                if !until_sample <= 0 then begin
                  until_sample := h.oh_sample_every;
                  time_receive := true;
                  obs_sample ()
                end
            | None -> ());
            if verify_codec then begin
              let r =
                Bitio.Bit_reader.of_string
                  ~length_bits:(Bitio.Bit_writer.length w)
                  (Bitio.Bit_writer.to_string w)
              in
              let decoded =
                try P.decode r
                with exn ->
                  raise
                    (Codec_mismatch
                       (Printf.sprintf "%s: decode raised %s" P.name
                          (Printexc.to_string exn)))
              in
              if not (P.equal_message decoded f.msg) then
                raise
                  (Codec_mismatch
                     (Format.asprintf "%s: %a decoded as %a" P.name P.pp_message
                        f.msg P.pp_message decoded));
              if not (Bitio.Bit_reader.at_end r) then
                raise
                  (Codec_mismatch
                     (Printf.sprintf "%s: %d trailing bits after decode" P.name
                        (Bitio.Bit_reader.remaining r)))
            end;
            let key =
              string_of_int (Bitio.Bit_writer.length w)
              ^ ":"
              ^ Bitio.Bit_writer.to_string w
            in
            if not (Hashtbl.mem seen key) then Hashtbl.add seen key ();
            total_bits := !total_bits + bits;
            edge_messages.(f.edge) <- edge_messages.(f.edge) + 1;
            edge_bits.(f.edge) <- edge_bits.(f.edge) + bits;
            if bits > !max_message_bits then max_message_bits := bits;
            (* The vertex-fault fate is decided before decode: a delivery
               consumed by a down, stuttering or crashing vertex is charged
               to the edge (it did cross the channel) but never reaches
               [P.receive] — and skips the corrupt-bit draw, since nobody
               observes the flipped encoding. *)
            let vfate =
              if vfaulty then Vfaults.Instance.on_deliver vfi ~vertex:f.tv
              else Vfaults.Deliver
            in
            match vfate with
            | Vfaults.Stutter ->
                (match oh with
                | Some h -> Obs.Registry.incr h.c_stuttered
                | None -> ())
            | Vfaults.Down_drop ->
                (match oh with
                | Some h ->
                    Obs.Registry.incr h.c_down_drops;
                    (* A restart fires on the down-drop that drains the
                       vertex's downtime; mirror the instance's count
                       exactly (a vertex still down at run end never
                       restarted). *)
                    let nr = Vfaults.Instance.restarts vfi in
                    let seen = Obs.Registry.value h.c_restarts in
                    if nr > seen then Obs.Registry.add h.c_restarts (nr - seen)
                | None -> ())
            | Vfaults.Crash (recovery, _downtime) -> (
                (match oh with
                | Some h -> Obs.Registry.incr h.c_crashes
                | None -> ());
                let old_bits = P.state_bits states.(f.tv) in
                match recovery with
                | Vfaults.Stop ->
                    (* The corpse keeps its state; it is simply deaf.  Its
                       visited flag stands — it {e was} reached. *)
                    ()
                | Vfaults.Amnesia when not supervised ->
                    lost_state_bits := !lost_state_bits + old_bits;
                    (match oh with
                    | Some h -> Obs.Registry.add h.c_lost_state_bits old_bits
                    | None -> ());
                    states.(f.tv) <- initial_of f.tv;
                    if visited.(f.tv) then begin
                      visited.(f.tv) <- false;
                      decr n_visited
                    end
                (* With a supervisor armed its checkpoints are durable
                   storage, so even "full" state loss degrades to a
                   restore: without this, an amnesia crash after a vertex
                   has forwarded its flow erases coverage that no
                   conservation argument can ever notice — the terminal
                   still collects flow 1 and falsely terminates. *)
                | Vfaults.Amnesia | Vfaults.Restore ->
                    let restored = ckpt.(f.tv) in
                    let lost = Stdlib.max 0 (old_bits - P.state_bits restored) in
                    lost_state_bits := !lost_state_bits + lost;
                    (match oh with
                    | Some h -> Obs.Registry.add h.c_lost_state_bits lost
                    | None -> ());
                    states.(f.tv) <- restored;
                    if ckpt_visited.(f.tv) then mark_visited f.tv
                    else if visited.(f.tv) then begin
                      visited.(f.tv) <- false;
                      decr n_visited
                    end)
            | Vfaults.Deliver -> (
            (* A corrupted copy flows through the real decode path: what the
               vertex processes is whatever the flipped encoding decodes to,
               a checksum-bearing codec rejects the flip outright, and an
               unparseable encoding is consumed undelivered. *)
            let delivered =
              if not f.corrupt then Some f.msg
              else
                let len = Bitio.Bit_writer.length w in
                if len = 0 then Some f.msg
                else begin
                  let b = Faults.Instance.corrupt_bit fi ~edge:f.edge ~length_bits:len in
                  let s = flip_bit (Bitio.Bit_writer.to_string w) b in
                  let r = Bitio.Bit_reader.of_string ~length_bits:len s in
                  match P.decode r with
                  | decoded ->
                      if not (P.equal_message decoded f.msg) then begin
                        incr corrupted_deliveries;
                        match oh with
                        | Some h -> Obs.Registry.incr h.c_corrupted
                        | None -> ()
                      end;
                      Some decoded
                  | exception Protocol_intf.Checksum_reject ->
                      incr checksum_rejects;
                      (match oh with
                      | Some h -> Obs.Registry.incr h.c_checksum_rejects
                      | None -> ());
                      None
                  | exception _ ->
                      incr garbled_drops;
                      (match oh with
                      | Some h -> Obs.Registry.incr h.c_garbled
                      | None -> ());
                      None
                end
            in
            match delivered with
            | None -> ()
            | Some msg ->
                (match on_deliver with
                | Some hook ->
                    hook
                      {
                        step = !deliveries;
                        seq = f.seq;
                        from_vertex = f.fv;
                        from_port = f.fp;
                        to_vertex = f.tv;
                        to_port = f.tp;
                        bits;
                      }
                      msg
                | None -> ());
                mark_visited f.tv;
                (* Receive cost is measured only on sampled deliveries —
                   two clock reads per delivery would dominate the cheap
                   protocols, and the histogram only needs a time series,
                   not a total. *)
                let t0 =
                  match oh with
                  | Some h when !time_receive -> Obs.Timeline.now h.oh_timeline
                  | _ -> 0.0
                in
                let state', sends =
                  P.receive
                    ~out_degree:(Digraph.out_degree g f.tv)
                    ~in_degree:(Digraph.in_degree g f.tv)
                    states.(f.tv) msg ~in_port:f.tp
                in
                (match oh with
                | Some h when !time_receive ->
                    time_receive := false;
                    let ns =
                      int_of_float ((Obs.Timeline.now h.oh_timeline -. t0) *. 1e9)
                    in
                    Obs.Registry.add h.c_receive_ns ns;
                    Obs.Registry.observe h.h_receive_ns ns
                | _ -> ());
                states.(f.tv) <- state';
                note_state state';
                if need_ckpt then begin
                  vdeliv.(f.tv) <- vdeliv.(f.tv) + 1;
                  if vdeliv.(f.tv) mod ckpt_cadence = 0 then begin
                    ckpt.(f.tv) <- state';
                    ckpt_visited.(f.tv) <- true;
                    incr checkpoints;
                    match oh with
                    | Some h -> Obs.Registry.incr h.c_checkpoints
                    | None -> ()
                  end
                end;
                lin_parent := !deliveries;
                lin_depth := f.ld;
                List.iter (fun (j, msg) -> send f.tv j msg) sends;
                lin_parent := 0;
                lin_depth := 0;
                if f.tv = t && P.accepting state' then begin
                  outcome := Terminated;
                  running := false
                end)
            end)
      end
    done;
    (* Surface what never got delivered — the in-flight part of the final
       linear cut.  Consumers fold these into a conservation accumulator. *)
    (match on_undelivered with
    | None -> ()
    | Some hook ->
        List.iter (fun f -> hook f.msg) (drain ());
        let continue = ref true in
        while !continue do
          match Binheap.pop delayed with
          | Some (_, f) -> hook f.msg
          | None -> continue := false
        done);
    (match lineage with
    | Some l ->
        Obs.Lineage.note_journal l ~packed:!lin_j
          ~heads:(Array.map fst target) ~count:!lin_n ~track:0
    | None -> ());
    (match oh with
    | Some h ->
        obs_sample ();
        if faulty then begin
          (* The per-edge fault draws live in the Faults instance; folding
             its end-of-run totals into cumulative counters keeps the
             registry reconciled with [fault_stats] across any number of
             runs sharing one sink. *)
          Obs.Registry.add h.c_dropped (Faults.Instance.dropped_copies fi);
          Obs.Registry.add h.c_extra (Faults.Instance.extra_copies fi);
          Obs.Registry.add h.c_delayed (Faults.Instance.delayed_copies fi)
        end;
        if churny then begin
          (* Same folding discipline as the edge-fault counters: the churn
             instance is the source of truth, so [engine.churn.*] reconciles
             exactly with [churn_stats] across runs sharing one sink. *)
          Obs.Registry.add h.c_churn_adds (Churn.Instance.adds ci);
          Obs.Registry.add h.c_churn_removes (Churn.Instance.removes ci);
          Obs.Registry.add h.c_churn_heals (Churn.Instance.heals ci);
          Obs.Registry.add h.c_churn_lost (Churn.Instance.lost ci);
          Obs.Registry.add h.c_churn_violations
            (Churn.Instance.window_violations ci)
        end;
        Obs.Timeline.end_span h.oh_timeline ~track:0 "engine.run"
    | None -> ());
    (match (obs, gc0) with
    | Some o, Some (g0, mw0) ->
        (* GC cost of the run, as gauges: words are deltas (what this run
           allocated), heap size is the absolute end-of-run footprint. *)
        let g1 = Gc.quick_stat () in
        let set name v =
          Obs.Registry.set (Obs.Registry.gauge o.Obs.registry name) v
        in
        set "engine.gc.minor_words" (int_of_float (Gc.minor_words () -. mw0));
        set "engine.gc.major_words"
          (int_of_float (g1.Gc.major_words -. g0.Gc.major_words));
        set "engine.gc.heap_words" g1.Gc.heap_words;
        set "engine.gc.compactions" (g1.Gc.compactions - g0.Gc.compactions);
        (* Mirror the timeline ring's overwrite count into the registry
           (same folding discipline as [c_restarts]: the timeline is the
           source of truth, the counter tracks it monotonically). *)
        let c = Obs.Registry.counter o.Obs.registry "timeline.dropped" in
        let d = Obs.Timeline.dropped o.Obs.timeline in
        let seen = Obs.Registry.value c in
        if d > seen then Obs.Registry.add c (d - seen)
    | _ -> ());
    let fault_stats =
      if not faulty then
        { no_faults_stats with
          corrupted_deliveries = !corrupted_deliveries;
          garbled_drops = !garbled_drops;
          checksum_rejects = !checksum_rejects;
        }
      else
        {
          dropped_copies = Faults.Instance.dropped_copies fi;
          extra_copies = Faults.Instance.extra_copies fi;
          delayed_copies = Faults.Instance.delayed_copies fi;
          corrupted_deliveries = !corrupted_deliveries;
          garbled_drops = !garbled_drops;
          checksum_rejects = !checksum_rejects;
          dead_edges = Faults.Instance.dead_edges fi;
        }
    in
    let vfault_stats =
      {
        crashes = Vfaults.Instance.crashes vfi;
        restarts = Vfaults.Instance.restarts vfi;
        lost_state_bits = !lost_state_bits;
        down_drops = Vfaults.Instance.down_drops vfi;
        stuttered = Vfaults.Instance.stuttered vfi;
        stopped_vertices = Vfaults.Instance.stopped vfi;
        checkpoints = !checkpoints;
        replayed = !replayed;
      }
    in
    let churn_stats =
      if not churny then no_churn_stats
      else
        {
          adds = Churn.Instance.adds ci;
          removes = Churn.Instance.removes ci;
          heals = Churn.Instance.heals ci;
          messages_lost_in_flight = Churn.Instance.lost ci;
          window_violations = Churn.Instance.window_violations ci;
        }
    in
    {
      outcome = !outcome;
      deliveries = !deliveries;
      total_bits = !total_bits;
      max_edge_bits = Array.fold_left Stdlib.max 0 edge_bits;
      max_message_bits = !max_message_bits;
      max_state_bits = !max_state_bits;
      max_in_flight = !max_in_flight;
      final_in_flight = !in_flight;
      distinct_messages = Hashtbl.length seen;
      edge_messages;
      edge_bits;
      visited;
      states;
      fault_stats;
      vfault_stats;
      churn_stats;
    }
end
