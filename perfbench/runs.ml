(* The two engine-run workloads, [interval-protocols] and [scalar-engines].

   A workload is a list of instances (protocol, graph spec, scheduler,
   engines, fault slice) built from the seed.  Set-up generates and
   compiles every graph; the measured loop then makes whole passes over
   the instances until the run's seconds are spent, so each pass weighs
   the instances alike.  Every run call is one session. *)

module E = Runtime.Engine
module Iset = Intervals.Iset

type engine = Flat | Classic
type sched = Fifo | Lifo | Rand of int

type inst = {
  proto : string;
  spec : string;
  sched : sched;
  engines : engine list;
  faulted : bool;
}

let engine_name = function Flat -> "flat" | Classic -> "classic"

(* Graph seeds: disjoint across run seeds. *)
let gseed seed i = (seed lsl 20) + i

(* Instance [i] of a workload's stream, a pure function of the seed and
   [i].  Every instance is a fresh graph, so a run averages over many of
   them.  Sizes sweep each class's range along a golden-ratio sequence
   that does not depend on the seed: every run sees the same spread of
   sizes and latencies spread continuously, while the seed picks the
   graphs.  Why these protocols and sizes: see README.md. *)
let cycle_length = function "interval-protocols" -> 4 | _ -> 7

let instance ~workload ~small seed i =
  let cycle = cycle_length workload in
  let sweep lo hi =
    let lo, hi = if small then (max 6 (lo / 8), max 8 (hi / 8)) else (lo, hi) in
    let u = Float.rem (0.5 +. (float_of_int (i / cycle) *. 0.6180339887498949)) 1.0 in
    lo + int_of_float (u *. float_of_int (hi - lo))
  in
  let spec fam n = Printf.sprintf "%s:%d:%d" fam n (gseed seed i) in
  match workload with
  | "interval-protocols" ->
      let proto, n =
        match i mod cycle with
        | 0 | 2 -> ("general", sweep 24 64)
        | 1 -> ("labeling", sweep 12 32)
        | _ -> ("mapping", sweep 8 18)
      in
      {
        proto;
        spec = spec "random" n;
        sched = (if i mod 5 = 4 then Rand (gseed seed i) else Fifo);
        engines = [ Flat ];
        faulted = false;
      }
  | _ ->
      let proto, spec, sched, faulted =
        match i mod cycle with
        | 0 -> ("flood", spec "layered" (sweep 40_000 120_000), Fifo, false)
        | 1 -> ("flood", spec "layered" (sweep 40_000 120_000), Lifo, false)
        | 2 -> ("tree", spec "random-tree" (sweep 12_000 36_000), Fifo, false)
        | 3 -> ("dag", spec "layered" (sweep 40_000 120_000), Fifo, false)
        | 4 -> ("dag", spec "random-dag" (sweep 8_000 24_000), Fifo, false)
        | 5 -> ("tree", spec "random-tree" (sweep 800 2_400), Fifo, true)
        | _ -> ("dag", spec "random-dag" (sweep 2_000 6_000), Lifo, true)
      in
      { proto; spec; sched; engines = [ Flat; Classic ]; faulted }

(* The set-up instances: whole cycles of the mix, enough graphs that
   set-up takes a measurable time; the scalar graphs are large, so one
   cycle. *)
let setup_count = function "interval-protocols" -> 96 | _ -> 7

(* The faulted slice: lossy, duplicating, delaying channels under edge
   churn, healed by the supervisor's retransmission rounds.  No
   corruption: a flipped bit can decode into a commodity whose exact
   arithmetic takes seconds, which would make run time a lottery. *)
let fate seed =
  ( Runtime.Faults.create ~drop:0.02 ~duplicate:0.02 ~max_delay:3 ~seed (),
    Runtime.Churn.uniform (Runtime.Churn.plan ~remove:0.01 ~max_downtime:3 ()) ~seed,
    { Runtime.Supervisor.default with max_retries = 4; seed } )

(* {1 Protocols and their correctness checks} *)

type kind =
  | K : {
      p : (module Runtime.Protocol_intf.PROTOCOL with type state = 's);
      check : Digraph.t -> 's E.report -> (unit, string) result;
      terminal_intervals : Digraph.t -> 's E.report -> int;
    }
      -> kind

let terminated_all_visited (r : _ E.report) =
  if r.E.outcome <> E.Terminated then Error "not terminated"
  else if not (Array.for_all Fun.id r.E.visited) then Error "a vertex was not visited"
  else Ok ()

let seen_alpha g (r : Anonet.Interval_core.t E.report) =
  Iset.count r.E.states.(Digraph.terminal g).Anonet.Interval_core.seen_alpha

let labels_disjoint g (r : Anonet.Labeling.state E.report) =
  let rec go acc = function
    | [] -> Ok ()
    | v :: vs ->
        let l = Anonet.Labeling.label r.E.states.(v) in
        if Iset.is_empty l then Error (Printf.sprintf "vertex %d has no label" v)
        else if not (Iset.disjoint l acc) then
          Error (Printf.sprintf "label of vertex %d overlaps another" v)
        else go (Iset.union acc l) vs
  in
  go Iset.empty (Digraph.internal_vertices g)

(* [expect] is the graph the extracted map must match — the input graph,
   unless a negative control swaps in another. *)
let map_matches ~expect g (r : Anonet.Mapping.state E.report) =
  match Anonet.Mapping.extract_map r.E.states.(Digraph.terminal g) with
  | Error e -> Error ("extract_map: " ^ e)
  | Ok m ->
      if Anonet.Mapping.map_isomorphic m (expect g) then Ok ()
      else Error "extracted map is not isomorphic to the input graph"

let ( >>= ) = Result.bind
let no_intervals _ _ = 0

let kind ~expect_map = function
  | "general" ->
      K
        {
          p = (module Anonet.General_broadcast);
          check = (fun _ r -> terminated_all_visited r);
          terminal_intervals = seen_alpha;
        }
  | "labeling" ->
      K
        {
          p = (module Anonet.Labeling);
          check = (fun g r -> terminated_all_visited r >>= fun () -> labels_disjoint g r);
          terminal_intervals = seen_alpha;
        }
  | "mapping" ->
      K
        {
          p = (module Anonet.Mapping);
          check =
            (fun g r ->
              terminated_all_visited r >>= fun () -> map_matches ~expect:expect_map g r);
          terminal_intervals = no_intervals;
        }
  | "flood" ->
      K
        {
          p = (module Anonet.Flood);
          check =
            (fun g r ->
              if r.E.deliveries <> Digraph.n_edges g then
                Error "flood: not one delivery per edge"
              else if not (Array.for_all Fun.id r.E.visited) then
                Error "flood: a vertex was not visited"
              else Ok ());
          terminal_intervals = no_intervals;
        }
  | "tree" ->
      K
        {
          p = (module Anonet.Tree_broadcast);
          check = (fun _ r -> terminated_all_visited r);
          terminal_intervals = no_intervals;
        }
  | "dag" ->
      K
        {
          p = (module Anonet.Dag_broadcast_pow2);
          check = (fun _ r -> terminated_all_visited r);
          terminal_intervals = no_intervals;
        }
  | p -> invalid_arg ("unknown protocol " ^ p)

(* Every report field, states included. *)
let same_report (a : 's E.report) (b : 's E.report) =
  a.E.outcome = b.E.outcome && a.E.deliveries = b.E.deliveries
  && a.E.total_bits = b.E.total_bits && a.E.max_edge_bits = b.E.max_edge_bits
  && a.E.max_message_bits = b.E.max_message_bits
  && a.E.max_state_bits = b.E.max_state_bits
  && a.E.max_in_flight = b.E.max_in_flight
  && a.E.final_in_flight = b.E.final_in_flight
  && a.E.distinct_messages = b.E.distinct_messages
  && a.E.edge_messages = b.E.edge_messages && a.E.edge_bits = b.E.edge_bits
  && a.E.visited = b.E.visited && a.E.fault_stats = b.E.fault_stats
  && a.E.vfault_stats = b.E.vfault_stats && a.E.churn_stats = b.E.churn_stats
  && compare a.E.states b.E.states = 0

(* One engine run; [csr] doubles as the classic engine's graph. *)
let run_one (type s) (module P : Runtime.Protocol_intf.PROTOCOL with type state = s)
    ~engine ~sched ~fate csr : s E.report =
  let scheduler =
    match sched with
    | Fifo -> Runtime.Scheduler.Fifo
    | Lifo -> Runtime.Scheduler.Lifo
    | Rand s -> Runtime.Scheduler.Random (Prng.create s)
  in
  let faults, churn, supervisor =
    match fate with
    | None -> (None, None, None)
    | Some (f, c, s) -> (Some f, Some c, Some s)
  in
  match engine with
  | Flat ->
      let module En = Flatcore.Engine.Make (P) in
      En.run_csr ~scheduler ?faults ?churn ?supervisor csr
  | Classic ->
      let module En = E.Make (P) in
      En.run ~scheduler ?faults ?churn ?supervisor (Flatcore.Csr.digraph csr)

(* {1 Measurement} *)

type sample = {
  s_proto : string;
  s_engine : engine;
  s_faulted : bool;
  s_secs : float;  (** Untraced run-call wall time. *)
  s_words : float;  (** Minor words allocated during the untraced run. *)
  s_minor : int;
  s_major : int;
  s_deliveries : int;
  s_total_bits : int;
  s_max_state_bits : int;
  s_terminal_intervals : int;
  s_ok : bool;
  s_traced : (float * Timed.cell) option;
      (** Traced run: wall time and the callbacks' cell. *)
  s_index : int;  (** Position in the workload's instance stream. *)
  s_factor : float;  (** Calibration factor of the chunk it ran in. *)
}

type tamper = No_tamper | Tamper_map | Tamper_parity

(* Runs one instance on each of its engines.  With [trace] set every
   engine run is repeated under {!Timed.Make}, and the traced report
   must equal the untraced one; [traced_first] alternates the order
   between instances. *)
let rec exec ~tamper ~trace ~traced_first ~timeline seed (inst, g, csr) =
  let expect_map =
    if tamper = Tamper_map then fun g ->
      (* A wrong expected map: the same family at a seed no instance uses. *)
      let n = Digraph.n_vertices g - 2 in
      let spec = Printf.sprintf "random:%d:%d" n (gseed seed (-1)) in
      match Digraph.Families.of_spec spec with
      | Ok h -> h
      | Error e -> failwith e
    else Fun.id
  in
  match kind ~expect_map inst.proto with
  | K { p; check; terminal_intervals } ->
      exec_with p ~check ~terminal_intervals ~tamper ~trace ~traced_first ~timeline seed
        (inst, g, csr)

and exec_with : type s.
    (module Runtime.Protocol_intf.PROTOCOL with type state = s) ->
    check:(Digraph.t -> s E.report -> (unit, string) result) ->
    terminal_intervals:(Digraph.t -> s E.report -> int) ->
    tamper:tamper -> trace:bool -> traced_first:bool -> timeline:Obs.Timeline.t ->
    int -> inst * Digraph.t * Flatcore.Csr.t -> sample list =
 fun p ~check ~terminal_intervals ~tamper ~trace ~traced_first ~timeline seed (inst, g, csr) ->
  let module P = (val p : Runtime.Protocol_intf.PROTOCOL with type state = s) in
  let fate = if inst.faulted then Some (fate seed) else None in
  let untraced engine =
    let q0 = Gc.quick_stat () in
    let w0 = Gc.minor_words () in
    let r, secs = Stats.time (fun () -> run_one p ~engine ~sched:inst.sched ~fate csr) in
    let words = Gc.minor_words () -. w0 in
    let q1 = Gc.quick_stat () in
    (r, secs, words, q1.Gc.minor_collections - q0.Gc.minor_collections,
     q1.Gc.major_collections - q0.Gc.major_collections)
  in
  let traced engine =
    let c = Timed.cell () in
    let module T = Timed.Make (P) (struct let c = c end) in
    let name = Printf.sprintf "run %s/%s/%s" inst.proto (engine_name engine) inst.spec in
    Obs.Timeline.begin_span timeline ~track:0 name;
    let r, secs =
      Stats.time (fun () -> run_one (module T) ~engine ~sched:inst.sched ~fate csr)
    in
    Obs.Timeline.end_span timeline ~track:0 name;
    (r, secs, c)
  in
  let reports =
    List.map
      (fun engine ->
        let (r, secs, words, minor, major), tr =
          if not trace then (untraced engine, None)
          else if traced_first then
            let t = traced engine in
            (untraced engine, Some t)
          else
            let u = untraced engine in
            (u, Some (traced engine))
        in
        let ok, tr =
          match tr with
          | None -> (true, None)
          | Some (rt, st, c) -> (same_report r rt, Some (st, c))
        in
        (engine, r, secs, words, minor, major, ok, tr))
      inst.engines
  in
  (* Flat and classic must agree on every field. *)
  let reference =
    match reports with
    | [] -> None
    | (_, r, _, _, _, _, _, _) :: _ -> Some r
  in
  List.map
    (fun (engine, r, secs, words, minor, major, traced_ok, tr) ->
      let r_cmp =
        if tamper = Tamper_parity && engine = Classic then
          { r with E.deliveries = r.E.deliveries + 1 }
        else r
      in
      let parity = match reference with Some r0 -> same_report r0 r_cmp | None -> true in
      let ok =
        match (if inst.faulted then Ok () else check g r) with
        | Ok () -> parity && traced_ok
        | Error e ->
            Printf.printf "CHECK FAILED %s on %s (%s): %s\n" inst.proto inst.spec
              (engine_name engine) e;
            false
      in
      if not parity then
        Printf.printf "CHECK FAILED %s on %s: flat and classic reports differ\n" inst.proto
          inst.spec;
      if not traced_ok then
        Printf.printf "CHECK FAILED %s on %s (%s): traced report differs\n" inst.proto inst.spec
          (engine_name engine);
      {
        s_proto = inst.proto;
        s_engine = engine;
        s_faulted = inst.faulted;
        s_secs = secs;
        s_words = words;
        s_minor = minor;
        s_major = major;
        s_deliveries = r.E.deliveries;
        s_total_bits = r.E.total_bits;
        s_max_state_bits = r.E.max_state_bits;
        s_terminal_intervals = terminal_intervals g r;
        s_ok = ok;
        s_traced = tr;
        s_index = 0;
        s_factor = 1.0;
      })
    reports

let build inst =
  let g, gen_s =
    Stats.time (fun () ->
        match Digraph.Families.of_spec inst.spec with Ok g -> g | Error e -> failwith e)
  in
  let csr, csr_s = Stats.time (fun () -> Flatcore.Csr.of_digraph g) in
  ((inst, g, csr), gen_s, csr_s)

(* Set-up: generate and compile the set-up instances' graphs, [reps]
   times; reports the median generate and compile seconds and keeps the
   last build. *)
let setup ~reps insts =
  let once () =
    let built, f = Stats.Calib.factor_around (fun () -> List.map build insts) in
    let total get = f *. List.fold_left (fun acc b -> acc +. get b) 0.0 built in
    ( List.map (fun (b, _, _) -> b) built,
      total (fun (_, g, _) -> g),
      total (fun (_, _, c) -> c) )
  in
  let rec go k acc =
    let built, gen_s, csr_s = once () in
    let acc = (gen_s, csr_s) :: acc in
    if k <= 1 then (built, acc) else go (k - 1) acc
  in
  let built, times = go reps [] in
  let med f = Stats.median (List.map f times) in
  (built, med (fun (a, b) -> a +. b), med fst, med snd)

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let frac a b = if b = 0.0 then 0.0 else a /. b

(* The traced run's per-layer rows: the generic ones every workload
   reports, and the per-protocol and per-engine split. *)
let layers ~gen_s ~csr_s ~first all =
  let m = Stats.metric in
  let deliveries = isum (fun s -> s.s_deliveries) all in
  let traced =
    List.filter_map
      (fun s ->
        Option.map (fun (t, c) -> (s, (t *. s.s_factor, Timed.scaled c s.s_factor))) s.s_traced)
      all
  in
  let traced_s = sum (fun (_, (t, _)) -> t) traced in
  let untraced_s = sum (fun (s, _) -> s.s_secs) traced in
  let cell_of l =
    let c = Timed.cell () in
    List.iter (fun (_, (_, x)) -> Timed.add ~into:c x) l;
    c
  in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let protocol_rows name l =
    let c = cell_of l in
    let wall = sum (fun (_, (t, _)) -> t) l in
    let row layer metric unit v =
      m (Printf.sprintf "%s.%s%s" layer (if name = "" then "" else name ^ ".") metric) unit v
    in
    let us ns calls = ratio ns calls /. 1000.0 in
    let share ns = frac (float_of_int ns *. 1e-9) wall in
    Timed.
      [
        row "protocol" "receive_us" "us" (us c.recv_ns c.recv_calls);
        row "protocol" "receive_share" "frac" (share c.recv_ns);
        row "protocol" "receive_words" "words" (ratio c.recv_words c.recv_calls);
        row "protocol" "state_bits_us" "us" (us c.sb_ns c.sb_calls);
        row "protocol" "state_bits_share" "frac" (share c.sb_ns);
        row "codec" "encode_us" "us" (us c.enc_ns c.enc_calls);
        row "codec" "encode_share" "frac" (share c.enc_ns);
        row "codec" "decode_us" "us" (us c.dec_ns c.dec_calls);
      ]
  in
  let self_ns l =
    let d = isum (fun (s, _) -> s.s_deliveries) l in
    let self =
      sum (fun (_, (t, c)) -> t -. (float_of_int (Timed.callback_ns c) *. 1e-9)) l
    in
    if d = 0 then 0.0 else self *. 1e9 /. float_of_int d
  in
  let by f = List.filter (fun (s, _) -> f s) traced in
  let protos = List.sort_uniq compare (List.map (fun s -> s.s_proto) all) in
  let per_proto =
    List.concat_map (fun p -> protocol_rows p (by (fun s -> s.s_proto = p))) protos
  in
  let slices =
    [
      ("flat", by (fun s -> s.s_engine = Flat && not s.s_faulted));
      ("classic", by (fun s -> s.s_engine = Classic && not s.s_faulted));
      ("faulted", by (fun s -> s.s_faulted));
    ]
  in
  let slice_rows =
    List.filter_map
      (fun (n, l) ->
        if l = [] then None
        else Some (m (Printf.sprintf "engine.%s.self_ns_per_delivery" n) "ns" (self_ns l)))
      slices
  in
  let all_cell = cell_of traced in
  let count f = float_of_int (isum f first) in
  let traced_deliveries = isum (fun (s, _) -> s.s_deliveries) traced in
  let generic =
    [
      m "families.generate_s" "s" gen_s;
      m "csr.compile_s" "s" csr_s;
    ]
    (* decode runs only where a fault corrupts a copy; it is in the split. *)
    @ List.filter (fun r -> r.Stats.m_name <> "codec.decode_us") (protocol_rows "" traced)
    @ [
        m "codec.encodes_per_delivery" "ratio"
          (frac (float_of_int all_cell.Timed.enc_calls) (float_of_int traced_deliveries));
        m "engine.self_ns_per_delivery" "ns" (self_ns traced);
        m "engine.words_per_delivery" "words"
          (frac (sum (fun s -> s.s_words) all) (float_of_int deliveries));
        m "gc.minor_collections" "count" (count (fun s -> s.s_minor));
        m "gc.major_collections" "count" (count (fun s -> s.s_major));
        m "engine.deliveries" "count" (count (fun s -> s.s_deliveries));
        m "engine.total_bits" "bits" (count (fun s -> s.s_total_bits));
        m "engine.max_state_bits" "bits"
          (float_of_int (List.fold_left (fun a s -> max a s.s_max_state_bits) 0 first));
        m "iset.terminal_intervals" "count" (count (fun s -> s.s_terminal_intervals));
        m "trace_overhead_frac" "frac" (frac traced_s untraced_s -. 1.0);
      ]
  in
  (generic, per_proto @ slice_rows)

let write_trace ~workload trace_file timeline =
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc
        (Obs.Export.chrome_trace ~process_name:("anobench " ^ workload) timeline);
      close_out oc;
      Printf.printf "trace written to %s\n" path)
    trace_file

(* Sessions per block of the tail figure ({!Stats.blocked_tail}). *)
let tail_block = 200

(* Calibration chunks: a few hundred milliseconds of work each. *)
let chunk_s = 0.25

let run ~workload ~small ~seed ~seconds ~trace ~tamper ~trace_file =
  let k = setup_count workload in
  (* Runs end on a whole cycle of the mix, so every run weighs the
     classes alike. *)
  let cycle = cycle_length workload in
  let first_insts = List.init k (instance ~workload ~small seed) in
  let reps = if workload = "interval-protocols" then 9 else 5 in
  let built, setup_s, gen_s, csr_s = setup ~reps first_insts in
  let timeline = Obs.Timeline.create ~capacity:(1 lsl 18) () in
  let t0 = Stats.ns () in
  (* The set-up cycle always runs, then the stream until time is up, in
     calibrated chunks; past the set-up cycle each graph is built when
     its turn comes, so one large graph is live at a time. *)
  let rec chunk i acc =
    let c0 = Stats.ns () in
    let rec go i acc =
      if i > 0 && i mod cycle = 0 && Stats.secs_since c0 >= chunk_s then (i, acc)
      else
        let b =
          if i < k then List.nth built i
          else
            let b, _, _ = build (instance ~workload ~small seed i) in
            b
        in
        let samples = exec ~tamper ~trace ~traced_first:(i mod 2 = 1) ~timeline seed b in
        let samples = List.map (fun s -> { s with s_index = i }) samples in
        go (i + 1) (List.rev_append samples acc)
    in
    let (i', samples), f = Stats.Calib.factor_around (fun () -> go i []) in
    let scaled =
      List.rev_map (fun s -> { s with s_secs = s.s_secs *. f; s_factor = f }) samples
    in
    let acc = List.rev_append scaled acc in
    if i' >= k && Stats.secs_since t0 >= seconds then (i', List.rev acc) else chunk i' acc
  in
  let n_inst, all = chunk 0 [] in
  let first = List.filter (fun s -> s.s_index < k) all in
  let failed = List.length (List.filter (fun s -> not s.s_ok) all) in
  let attempted = List.length all in
  let n_sessions = List.length all in
  let run_s = sum (fun s -> s.s_secs) all in
  let deliveries = isum (fun s -> s.s_deliveries) all in
  let lat = List.map (fun s -> s.s_secs *. 1000.0) all in
  let blocks = max 1 (n_sessions / tail_block) in
  let tail = Stats.tail_pct (n_sessions / blocks) in
  Printf.printf "workload %s seed %d: %d instances, %d runs, %d failed\n" workload seed n_inst
    attempted failed;
  let m = Stats.metric in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "deliveries_per_s" "1/s" (float_of_int deliveries /. run_s);
      m "sessions_per_s" "1/s" (float_of_int n_sessions /. run_s);
      m "peak_heap_mb" "MB" (Stats.peak_heap_mb ());
      m "ok_frac" "frac" (1.0 -. (float_of_int failed /. float_of_int attempted));
    ]
  in
  (* Session latency is a layer metric: on a shared 2-core box its
     run-to-run spread exceeds any bound worth gating on (see README). *)
  let latency =
    [
      m "session_p50_ms" "ms" (Stats.median lat);
      m "session_tail_ms" "ms" (Stats.blocked_tail ~block:tail_block lat);
    ]
  in
  Printf.printf "session tail: p%.2f per block of ~%d sessions, median of %d blocks\n" tail
    (n_sessions / blocks) blocks;
  let slice s =
    Printf.sprintf "%s/%s%s" s.s_proto (engine_name s.s_engine)
      (if s.s_faulted then "/faulted" else "")
  in
  Stats.table "median session ms by slice"
    (List.map
       (fun k ->
         let ms =
           List.filter_map (fun s -> if slice s = k then Some (s.s_secs *. 1000.0) else None) all
         in
         m k "ms" (Stats.median ms))
       (List.sort_uniq compare (List.map slice all)));
  let failed_frac = float_of_int failed /. float_of_int attempted in
  let layers =
    if not trace then []
    else begin
      let generic, split = layers ~gen_s ~csr_s ~first all in
      Stats.table "per-protocol split (traced)" split;
      write_trace ~workload trace_file timeline;
      generic
    end
  in
  Stats.table "end-to-end" (e2e @ latency);
  Printf.printf "  %-40s %16.6g %s\n" "failed_frac" failed_frac "frac";
  if trace then Stats.table "per-layer" (latency @ layers);
  (failed = 0, attempted, failed, if trace then latency @ layers else e2e)
