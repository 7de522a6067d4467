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

(* {1 Code shared by both engines}

   Everything from here on is the part of a run that does not depend on
   how the graph and the in-flight copies are laid out: the scheduler
   pools, the fate of every copy and vertex, the run telemetry and the
   delivery loop ([Make.deliver]) that drives them.  The classic engine
   ([Make.run]) and [Flatcore.Engine]'s generic path both run that loop,
   so a scheduling, fate or telemetry rule, counter or bugfix lands once;
   the engines differ only in the edge tables and the wire accounting they
   hand it. *)

(* In-flight message pool, specialized per scheduling policy.  Returns
   (push, pop, drain): [drain] empties the pool and returns whatever was
   still held, so the engine can report undelivered messages at the end of
   a run (conservation-law checks need the full cut). *)
let pool (scheduler : Scheduler.t) ~seq ~edge =
  match scheduler with
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
      ((fun f -> Binheap.push h (prio (edge f), seq f) f), pop, fun () -> drain [])
  | Replay order ->
      (* Deliver exactly the listed seq numbers, in order.  A listed seq
         that is not yet in flight makes the pool report empty {e without}
         consuming it: the engine's idle path then releases delay-held
         copies and fires supervisor retransmissions — the only sources
         that can still produce it — and retries.  With a faithfully
         recorded schedule the head always appears; if it never does (an
         unfaithful schedule) the run stops where the schedule left it. *)
      let pool = Hashtbl.create 32 in
      let remaining = ref order in
      let push f = Hashtbl.replace pool (seq f) f in
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
        List.sort (fun a b -> compare (seq a) (seq b)) l
      in
      (push, pop, drain)

let sample_obs h ~in_flight ~n_visited ~residual ~deliveries ~total_bits =
  let tl = h.oh_timeline and track = 0 in
  Obs.Registry.set h.g_in_flight in_flight;
  Obs.Registry.set h.g_wavefront n_visited;
  Obs.Registry.set h.g_residual residual;
  Obs.Timeline.sample tl ~track "engine.in_flight" (float_of_int in_flight);
  Obs.Timeline.sample tl ~track "engine.wavefront" (float_of_int n_visited);
  Obs.Timeline.sample tl ~track "engine.cut_residual" (float_of_int residual);
  Obs.Timeline.sample tl ~track "engine.deliveries" (float_of_int deliveries);
  Obs.Timeline.sample tl ~track "engine.total_bits" (float_of_int total_bits)

type gc_mark = (Gc.stat * float) option

let gc_start = function
  | Some _ -> Some (Gc.quick_stat (), Gc.minor_words ())
  | None -> None

let gc_finish obs (mark : gc_mark) =
  match (obs, mark) with
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
  | _ -> ()

(* Pop journal: one packed [edge lor (parent lsl journal_shift)] slot per
   consumed copy, handed to the recorder wholesale at run end and replayed
   into its aggregates on first query — the run itself pays one store per
   delivery.  Parents are run-local delivery numbers; the recorder offsets
   them by the nodes it already holds, so one recorder can span runs. *)
type journal = {
  j_lineage : Obs.Lineage.t option;
  mutable j_packed : int array;
  mutable j_count : int;
}

let journal lineage ~n_vertices ~n_edges =
  Option.iter (fun l -> Obs.Lineage.bind l ~n_vertices ~n_edges) lineage;
  let packed = if lineage = None then [||] else Array.make 1024 0 in
  { j_lineage = lineage; j_packed = packed; j_count = 0 }

let journal_pop j ~edge ~parent =
  match j.j_lineage with
  | None -> ()
  | Some _ ->
      if j.j_count = Array.length j.j_packed then begin
        let bigger = Array.make (2 * j.j_count) 0 in
        Array.blit j.j_packed 0 bigger 0 j.j_count;
        j.j_packed <- bigger
      end;
      Array.unsafe_set j.j_packed j.j_count
        (edge lor (parent lsl Obs.Lineage.journal_shift));
      j.j_count <- j.j_count + 1

let journal_close j ~heads =
  Option.iter
    (fun l ->
      Obs.Lineage.note_journal l ~packed:j.j_packed ~heads ~count:j.j_count
        ~track:0)
    j.j_lineage

(* Flip stream-bit [b] of the MSB-first packing produced by Bit_writer. *)
let flip_bit s b =
  let bytes = Bytes.of_string s in
  let i = b / 8 in
  Bytes.set bytes i
    (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl (7 - (b mod 8)))));
  Bytes.to_string bytes

(* A run's fate state: vertex states, visited flags, checkpoints, the
   supervisor's retransmission state, the fault, vertex-fault and churn
   instances and every fault counter.  Each operation applies one rule and
   updates its [engine.*] Obs cells.  Per popped copy the order is [offer]
   (churn), then [arrive] (vertex fault), then [corrupt]. *)
module Fate (P : Protocol_intf.PROTOCOL) = struct
  type t = {
    oh : obs_hooks option;
    out_degree : int -> int;
    in_degree : int -> int;
    states : P.state array;
    visited : bool array;
    mutable n_visited : int;
    mutable max_state_bits : int;
    faulty : bool;
    fi : Faults.Instance.t;
    vfaulty : bool;
    vfi : Vfaults.Instance.t;
    churny : bool;
    ci : Churn.Instance.t;
    supervisor : Supervisor.config option;
    supervised : bool;
    (* Checkpoints: one state snapshot per vertex (initially pi0), plus the
       visited flag as of the snapshot.  States are immutable values, so
       the arrays share structure with [states] rather than copying. *)
    need_ckpt : bool;
    ckpt : P.state array;
    ckpt_visited : bool array;
    ckpt_cadence : int;
    vdeliv : int array;
    (* Supervisor retransmission state: the last message emitted on each
       dense edge (the only thing a feedback-free repeater can re-send). *)
    last_msg : P.message option array;
    sup_prng : Prng.t;
    mutable retries_left : int;
    mutable sup_round : int;
    mutable corrupted : int;
    mutable garbled : int;
    mutable checksum_rejects : int;
    mutable lost_state_bits : int;
    mutable checkpoints : int;
    mutable replayed : int;
  }

  let start ~oh ~faults ~vfaults ~churn ~supervisor ~n_vertices:n ~n_edges:ne
      ~out_degree ~in_degree =
    let states =
      Array.init n (fun v ->
          P.initial_state ~out_degree:(out_degree v) ~in_degree:(in_degree v))
    in
    let vfaulty = not (Vfaults.is_none vfaults) in
    let supervised = supervisor <> None in
    let need_ckpt = vfaulty || supervised in
    let cfg f d =
      match supervisor with Some (c : Supervisor.config) -> f c | None -> d
    in
    {
      oh;
      out_degree;
      in_degree;
      states;
      visited = Array.make n false;
      n_visited = 0;
      max_state_bits = 0;
      faulty = not (Faults.is_none faults);
      fi = Faults.Instance.start faults;
      vfaulty;
      vfi = Vfaults.Instance.start vfaults;
      churny = not (Churn.is_none churn);
      ci = Churn.Instance.start churn;
      supervisor;
      supervised;
      need_ckpt;
      ckpt = (if need_ckpt then Array.copy states else [||]);
      ckpt_visited = (if need_ckpt then Array.make n false else [||]);
      ckpt_cadence = cfg (fun c -> c.checkpoint_every) 1;
      vdeliv = Array.make (if need_ckpt then n else 0) 0;
      last_msg = Array.make (if supervised then Stdlib.max ne 1 else 1) None;
      sup_prng = Prng.create (cfg (fun c -> c.seed) 0);
      retries_left = cfg (fun c -> c.max_retries) 0;
      sup_round = 0;
      corrupted = 0;
      garbled = 0;
      checksum_rejects = 0;
      lost_state_bits = 0;
      checkpoints = 0;
      replayed = 0;
    }

  let states t = t.states
  let visited t = t.visited
  let n_visited t = t.n_visited
  let max_state_bits t = t.max_state_bits

  let bump t cell =
    match t.oh with Some h -> Obs.Registry.incr (cell h) | None -> ()

  let mark_visited t v =
    if not t.visited.(v) then begin
      t.visited.(v) <- true;
      t.n_visited <- t.n_visited + 1
    end

  let unvisit t v =
    if t.visited.(v) then begin
      t.visited.(v) <- false;
      t.n_visited <- t.n_visited - 1
    end

  let clean = [ { Faults.delay = 0; flip_bit = false } ]

  (* The copies one send puts on [edge] (one clean copy without edge
     faults); remembers [msg] for retransmission. *)
  let copies t ~edge msg =
    bump t (fun h -> h.c_sends);
    if t.supervised then t.last_msg.(edge) <- Some msg;
    if t.faulty then Faults.Instance.on_send t.fi ~edge else clean

  let offer t ~edge =
    if t.churny then Churn.Instance.on_offer t.ci ~edge else Churn.Cross

  let mark_churn t ~edge (fate : Churn.fate) =
    match t.oh with
    | None -> ()
    | Some h -> (
        let mark kind =
          Obs.Timeline.instant h.oh_timeline ~track:0
            (Printf.sprintf "churn.%s:%d" kind edge)
        in
        match fate with
        | Churn.Removed left ->
            mark "remove";
            if left = 0 then mark "heal"
        | Churn.Back `Heal -> mark "heal"
        | Churn.Back `Add -> mark "add"
        | Churn.Down | Churn.Cross -> ())

  let lose t bits =
    t.lost_state_bits <- t.lost_state_bits + bits;
    match t.oh with
    | Some h -> Obs.Registry.add h.c_lost_state_bits bits
    | None -> ()

  (* [true] if the delivery reaches [P.receive]; otherwise it stuttered,
     hit a down vertex, or crashed it (recovery applied here). *)
  let arrive t ~vertex:v =
    (not t.vfaulty)
    ||
    match Vfaults.Instance.on_deliver t.vfi ~vertex:v with
    | Vfaults.Deliver -> true
    | Vfaults.Stutter ->
        bump t (fun h -> h.c_stuttered);
        false
    | Vfaults.Down_drop ->
        (match t.oh with
        | Some h ->
            Obs.Registry.incr h.c_down_drops;
            (* A restart fires on the down-drop that drains the vertex's
               downtime; mirror the instance's count exactly (a vertex
               still down at run end never restarted). *)
            let nr = Vfaults.Instance.restarts t.vfi in
            let seen = Obs.Registry.value h.c_restarts in
            if nr > seen then Obs.Registry.add h.c_restarts (nr - seen)
        | None -> ());
        false
    | Vfaults.Crash (recovery, _downtime) ->
        bump t (fun h -> h.c_crashes);
        let old_bits = P.state_bits t.states.(v) in
        (match recovery with
        | Vfaults.Stop ->
            (* The corpse keeps its state; it is simply deaf.  Its visited
               flag stands — it {e was} reached. *)
            ()
        | Vfaults.Amnesia when not t.supervised ->
            lose t old_bits;
            t.states.(v) <-
              P.initial_state ~out_degree:(t.out_degree v)
                ~in_degree:(t.in_degree v);
            unvisit t v
        (* With a supervisor armed its checkpoints are durable storage, so
           even "full" state loss degrades to a restore: without this, an
           amnesia crash after a vertex has forwarded its flow erases
           coverage that no conservation argument can ever notice — the
           terminal still collects flow 1 and falsely terminates. *)
        | Vfaults.Amnesia | Vfaults.Restore ->
            let restored = t.ckpt.(v) in
            lose t (Stdlib.max 0 (old_bits - P.state_bits restored));
            t.states.(v) <- restored;
            if t.ckpt_visited.(v) then mark_visited t v else unvisit t v);
        false

  (* Decode the encoding with the edge's drawn bit flipped; [None] on a
     checksum reject or a garble. *)
  let corrupt t ~edge ~length_bits enc msg =
    if length_bits = 0 then Some msg
    else
      let b = Faults.Instance.corrupt_bit t.fi ~edge ~length_bits in
      let r = Bitio.Bit_reader.of_string ~length_bits (flip_bit enc b) in
      match P.decode r with
      | decoded ->
          if not (P.equal_message decoded msg) then begin
            t.corrupted <- t.corrupted + 1;
            bump t (fun h -> h.c_corrupted)
          end;
          Some decoded
      | exception Protocol_intf.Checksum_reject ->
          t.checksum_rejects <- t.checksum_rejects + 1;
          bump t (fun h -> h.c_checksum_rejects);
          None
      | exception _ ->
          t.garbled <- t.garbled + 1;
          bump t (fun h -> h.c_garbled);
          None

  let verify ~length_bits enc msg =
    let r = Bitio.Bit_reader.of_string ~length_bits enc in
    let decoded =
      try P.decode r
      with exn ->
        raise
          (Codec_mismatch
             (Printf.sprintf "%s: decode raised %s" P.name
                (Printexc.to_string exn)))
    in
    if not (P.equal_message decoded msg) then
      raise
        (Codec_mismatch
           (Format.asprintf "%s: %a decoded as %a" P.name P.pp_message msg
              P.pp_message decoded));
    if not (Bitio.Bit_reader.at_end r) then
      raise
        (Codec_mismatch
           (Printf.sprintf "%s: %d trailing bits after decode" P.name
              (Bitio.Bit_reader.remaining r)))

  (* Receive cost is measured only on sampled deliveries — two clock reads
     per delivery would dominate the cheap protocols, and the histogram only
     needs a time series, not a total. *)
  let receive t ~vertex:v ~in_port ~timed msg =
    let t0 =
      match t.oh with
      | Some h when timed -> Obs.Timeline.now h.oh_timeline
      | _ -> 0.0
    in
    let ((st, _) as result) =
      P.receive ~out_degree:(t.out_degree v) ~in_degree:(t.in_degree v)
        t.states.(v) msg ~in_port
    in
    (match t.oh with
    | Some h when timed ->
        let ns = int_of_float ((Obs.Timeline.now h.oh_timeline -. t0) *. 1e9) in
        Obs.Registry.add h.c_receive_ns ns;
        Obs.Registry.observe h.h_receive_ns ns
    | _ -> ());
    t.states.(v) <- st;
    let b = P.state_bits st in
    if b > t.max_state_bits then t.max_state_bits <- b;
    if t.need_ckpt then begin
      t.vdeliv.(v) <- t.vdeliv.(v) + 1;
      if t.vdeliv.(v) mod t.ckpt_cadence = 0 then begin
        t.ckpt.(v) <- st;
        t.ckpt_visited.(v) <- true;
        t.checkpoints <- t.checkpoints + 1;
        bump t (fun h -> h.c_checkpoints)
      end
    end;
    result

  (* One supervisor round, if armed and rounds remain: re-[send] each
     edge's last message whose [source] is up; [true] if any was. *)
  let retransmit t ~source ~send =
    match t.supervisor with
    | Some cfg when t.retries_left > 0 ->
        let sent = ref false in
        Array.iteri
          (fun e last ->
            match last with
            | Some msg when Vfaults.Instance.is_up t.vfi ~vertex:(source e) ->
                let extra_delay =
                  Supervisor.backoff cfg t.sup_prng ~round:t.sup_round
                in
                send ~extra_delay e msg;
                t.replayed <- t.replayed + 1;
                bump t (fun h -> h.c_replayed);
                sent := true
            | _ -> ())
          t.last_msg;
        t.sup_round <- t.sup_round + 1;
        t.retries_left <- t.retries_left - 1;
        !sent
    | _ -> false

  (* Edge-fault and churn counters only move when their plan is armed, so
     the instances of an empty plan report the all-zero stats. *)
  let finish t =
    let fault_stats =
      {
        dropped_copies = Faults.Instance.dropped_copies t.fi;
        extra_copies = Faults.Instance.extra_copies t.fi;
        delayed_copies = Faults.Instance.delayed_copies t.fi;
        corrupted_deliveries = t.corrupted;
        garbled_drops = t.garbled;
        checksum_rejects = t.checksum_rejects;
        dead_edges = Faults.Instance.dead_edges t.fi;
      }
    in
    let vfault_stats =
      {
        crashes = Vfaults.Instance.crashes t.vfi;
        restarts = Vfaults.Instance.restarts t.vfi;
        lost_state_bits = t.lost_state_bits;
        down_drops = Vfaults.Instance.down_drops t.vfi;
        stuttered = Vfaults.Instance.stuttered t.vfi;
        stopped_vertices = Vfaults.Instance.stopped t.vfi;
        checkpoints = t.checkpoints;
        replayed = t.replayed;
      }
    in
    let churn_stats =
      {
        adds = Churn.Instance.adds t.ci;
        removes = Churn.Instance.removes t.ci;
        heals = Churn.Instance.heals t.ci;
        messages_lost_in_flight = Churn.Instance.lost t.ci;
        window_violations = Churn.Instance.window_violations t.ci;
      }
    in
    (match t.oh with
    | Some h ->
        (* The per-edge draws live in the instances; folding their
           end-of-run totals into cumulative counters keeps the registry
           reconciled with the stats across any number of runs sharing one
           sink. *)
        Obs.Registry.add h.c_dropped fault_stats.dropped_copies;
        Obs.Registry.add h.c_extra fault_stats.extra_copies;
        Obs.Registry.add h.c_delayed fault_stats.delayed_copies;
        Obs.Registry.add h.c_churn_adds churn_stats.adds;
        Obs.Registry.add h.c_churn_removes churn_stats.removes;
        Obs.Registry.add h.c_churn_heals churn_stats.heals;
        Obs.Registry.add h.c_churn_lost churn_stats.messages_lost_in_flight;
        Obs.Registry.add h.c_churn_violations churn_stats.window_violations
    | None -> ());
    (fault_stats, vfault_stats, churn_stats)
end

(* {1 The delivery loop}

   The two engines differ only in how a dense edge resolves to its
   endpoints ([edge_tables]) and in how a copy's wire size and symbol are
   found ([wire]); [Make.deliver] is the one loop both run. *)

type edge_tables = {
  row : int array;
  head : int array;
  tport : int array;
  src : int array;
}

type 'm wire = {
  slot : 'm -> int;
  cross : int -> 'm -> int;
  encoding : int -> 'm -> string;
  distinct : unit -> int;
}

(* Walk the in-adjacency: [in_origin] and [edge_index] are O(1), so the
   tables cost O(n + m), not the O(m * in_degree) port search of
   [out_port_target_port].  [row.(u)] is [u]'s port-0 edge index, so
   [row.(u) + j] is [Digraph.edge_index g u j] for every out-port [j]. *)
let edge_tables g =
  let n = Digraph.n_vertices g and ne = Digraph.n_edges g in
  let row = Array.make (n + 1) ne in
  let head = Array.make ne 0 and tport = Array.make ne 0 in
  let src = Array.make ne 0 in
  for v = 0 to n - 1 do
    row.(v) <- Digraph.edge_index g v 0;
    for i = 0 to Digraph.in_degree g v - 1 do
      let u, j = Digraph.in_origin g v i in
      let e = Digraph.edge_index g u j in
      head.(e) <- v;
      tport.(e) <- i;
      src.(e) <- u
    done
  done;
  { row; head; tport; src }

module Make (P : Protocol_intf.PROTOCOL) = struct
  type state = P.state
  type message = P.message

  module Fate = Fate (P)

  (* A copy in flight: its endpoints are recoverable from [edge] through
     the edge tables, so only the scheduling identity, the fault bit, the
     causal parent, the protocol value and the wire slot travel. *)
  type flight = {
    seq : int;
    edge : int;
    corrupt : bool;
    (* Causal provenance: the lineage node id of the receive that caused
       this send (0 = root emission or supervisor retransmission). *)
    lp : int;
    msg : P.message;
    slot : int;
  }

  let deliver ~scheduler ~payload_bits ~step_limit ~faults ~vfaults ~churn
      ~supervisor ~verify_codec ~stop ~oh ~lineage ~on_deliver ~on_pop
      ~on_undelivered ~edges ~(wire : P.message wire) g =
    (* Cooperative cancellation: polled between deliveries, so a [true]
       stops the run at a message boundary with the accounting intact
       (undelivered copies stay counted in [final_in_flight] and reach
       [on_undelivered], exactly as under [Step_limit]). *)
    let stop_now = match stop with None -> (fun () -> false) | Some f -> f in
    let { row; head; tport; src } = edges in
    let n = Digraph.n_vertices g in
    let ne = Digraph.n_edges g in
    let journal = journal lineage ~n_vertices:n ~n_edges:ne in
    (* Causal context for [send]: the lineage node id of the receive whose
       sends are currently being injected.  0 outside a receive — root
       emissions and supervisor retransmissions start fresh chains. *)
    let lin_parent = ref 0 in
    let t = Digraph.terminal g in
    let fate =
      Fate.start ~oh ~faults ~vfaults ~churn ~supervisor ~n_vertices:n
        ~n_edges:ne ~out_degree:(Digraph.out_degree g)
        ~in_degree:(Digraph.in_degree g)
    in
    let states = Fate.states fate in
    let edge_messages = Array.make (Stdlib.max ne 1) 0 in
    let edge_bits = Array.make (Stdlib.max ne 1) 0 in
    let total_bits = ref 0 in
    let max_message_bits = ref 0 in
    let deliveries = ref 0 in
    let push, pop, drain =
      pool scheduler ~seq:(fun f -> f.seq) ~edge:(fun f -> f.edge)
    in
    (* Copies held back by a delay fault, keyed by (release step, seq); they
       still count as in flight. *)
    let delayed : (int * int, flight) Binheap.t = Binheap.create () in
    let next_seq = ref 0 in
    let in_flight = ref 0 in
    let max_in_flight = ref 0 in
    (* Copies that ever entered flight; [entered - deliveries - in_flight]
       is the engine's message-conservation residual, sampled as the
       [engine.cut_residual] series (always 0 unless the accounting is
       broken — a live self-check, not a tautology for readers of the
       trace). *)
    let entered = ref 0 in
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
    let obs_sample h =
      sample_obs h ~in_flight:!in_flight ~n_visited:(Fate.n_visited fate)
        ~residual:(!entered - !deliveries - !in_flight)
        ~deliveries:!deliveries ~total_bits:!total_bits
    in
    let send ~extra_delay edge msg =
      let copies = Fate.copies fate ~edge msg in
      let slot = wire.slot msg and lp = !lin_parent in
      List.iter
        (fun ({ delay; flip_bit = corrupt } : Faults.copy_fate) ->
          enter
            { seq = !next_seq; edge; corrupt; lp; msg; slot }
            ~delay:(delay + extra_delay);
          incr next_seq)
        copies
    in
    (* One retransmission round: re-send the last message of every edge
       whose source is still healthy, held back by the round's backoff.
       Retransmitted copies run the same per-edge fault gauntlet as
       originals, and a {!Redundant}-wrapped receiver dedups them by wire
       encoding. *)
    let retransmit () = Fate.retransmit fate ~source:(fun e -> src.(e)) ~send in
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
    let s = Digraph.source g in
    List.iter
      (fun (j, msg) -> send ~extra_delay:0 (row.(s) + j) msg)
      (P.root_emit ~out_degree:(Digraph.out_degree g s));
    Fate.mark_visited fate s;
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
                else if retransmit () then ()
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
            journal_pop journal ~edge:f.edge ~parent:f.lp;
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
            match Fate.offer fate ~edge:f.edge with
            | Churn.Cross ->
                (* Charge the exact wire size. *)
                let length_bits = wire.cross f.slot f.msg in
                let bits = length_bits + payload_bits in
                (match oh with
                | Some h ->
                    Obs.Registry.incr h.c_deliveries;
                    Obs.Registry.add h.c_bits bits;
                    Obs.Registry.observe h.h_message_bits bits;
                    decr until_sample;
                    if !until_sample <= 0 then begin
                      until_sample := h.oh_sample_every;
                      time_receive := true;
                      obs_sample h
                    end
                | None -> ());
                if verify_codec then
                  Fate.verify ~length_bits (wire.encoding f.slot f.msg) f.msg;
                total_bits := !total_bits + bits;
                edge_messages.(f.edge) <- edge_messages.(f.edge) + 1;
                edge_bits.(f.edge) <- edge_bits.(f.edge) + bits;
                if bits > !max_message_bits then max_message_bits := bits;
                (* The vertex-fault fate is decided before decode: a
                   delivery consumed by a down, stuttering or crashing
                   vertex is charged to the edge (it did cross the channel)
                   but never reaches [P.receive] — and skips the corrupt-bit
                   draw, since nobody observes the flipped encoding.  A
                   corrupted copy flows through the real decode path. *)
                let tv = head.(f.edge) in
                if Fate.arrive fate ~vertex:tv then begin
                  let delivered =
                    if not f.corrupt then Some f.msg
                    else
                      Fate.corrupt fate ~edge:f.edge ~length_bits
                        (wire.encoding f.slot f.msg) f.msg
                  in
                  match delivered with
                  | None -> ()
                  | Some msg ->
                      let tp = tport.(f.edge) in
                      (match on_deliver with
                      | Some hook ->
                          let fv = src.(f.edge) in
                          hook
                            {
                              step = !deliveries;
                              seq = f.seq;
                              from_vertex = fv;
                              from_port = f.edge - row.(fv);
                              to_vertex = tv;
                              to_port = tp;
                              bits;
                            }
                            msg
                      | None -> ());
                      Fate.mark_visited fate tv;
                      let state', sends =
                        Fate.receive fate ~vertex:tv ~in_port:tp
                          ~timed:!time_receive msg
                      in
                      time_receive := false;
                      lin_parent := !deliveries;
                      let base = row.(tv) in
                      List.iter
                        (fun (j, msg) -> send ~extra_delay:0 (base + j) msg)
                        sends;
                      lin_parent := 0;
                      if tv = t && P.accepting state' then begin
                        outcome := Terminated;
                        running := false
                      end
                end
            | cfate -> (
                match oh with
                | None -> ()
                | Some h ->
                    Obs.Registry.incr h.c_deliveries;
                    decr until_sample;
                    if !until_sample <= 0 then begin
                      until_sample := h.oh_sample_every;
                      obs_sample h
                    end;
                    Fate.mark_churn fate ~edge:f.edge cfate))
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
    journal_close journal ~heads:head;
    let fault_stats, vfault_stats, churn_stats = Fate.finish fate in
    (match oh with
    | Some h ->
        obs_sample h;
        Obs.Timeline.end_span h.oh_timeline ~track:0 "engine.run"
    | None -> ());
    {
      outcome = !outcome;
      deliveries = !deliveries;
      total_bits = !total_bits;
      max_edge_bits = Array.fold_left Stdlib.max 0 edge_bits;
      max_message_bits = !max_message_bits;
      max_state_bits = Fate.max_state_bits fate;
      max_in_flight = !max_in_flight;
      final_in_flight = !in_flight;
      distinct_messages = wire.distinct ();
      edge_messages;
      edge_bits;
      visited = Fate.visited fate;
      states;
      fault_stats;
      vfault_stats;
      churn_stats;
    }

  (* The reference wire: every crossing encodes its message afresh and
     records the symbol under its length-and-bytes key — the independent
     oracle for the flat engine's arena. *)
  let encoding_wire () =
    let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
    let last = ref "" in
    {
      slot = (fun _ -> 0);
      cross =
        (fun _ msg ->
          let w = Bitio.Bit_writer.create () in
          P.encode w msg;
          let length_bits = Bitio.Bit_writer.length w in
          last := Bitio.Bit_writer.to_string w;
          let key = string_of_int length_bits ^ ":" ^ !last in
          if not (Hashtbl.mem seen key) then Hashtbl.add seen key ();
          length_bits);
      encoding = (fun _ _ -> !last);
      distinct = (fun () -> Hashtbl.length seen);
    }

  let run ?(scheduler = Scheduler.Fifo) ?(payload_bits = 0)
      ?(step_limit = 10_000_000) ?(faults = Faults.none)
      ?(vfaults = Vfaults.none) ?(churn = Churn.none) ?supervisor
      ?(verify_codec = false) ?stop ?obs ?lineage ?on_deliver ?on_pop
      ?on_undelivered g =
    let oh = Option.map obs_hooks obs in
    let gc0 = gc_start obs in
    let report =
      deliver ~scheduler ~payload_bits ~step_limit ~faults ~vfaults ~churn
        ~supervisor ~verify_codec ~stop ~oh ~lineage ~on_deliver ~on_pop
        ~on_undelivered ~edges:(edge_tables g) ~wire:(encoding_wire ()) g
    in
    gc_finish obs gc0;
    report
end
