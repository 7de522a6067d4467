(* The [serve-mix] workload: an open loop of Poisson arrivals through
   [Serve.Server.handle_line], journal on with fsync.

   The generator runs on the main domain and the server drains on
   [nproc - 1] worker domains.  Arrival times, the protocol mix, graph
   choices, duplicates and reads all come from the seed; the server sees
   only graph specs and request lines.  A session's latency runs from
   the time it was due to be sent to the time it finished, so a stalled
   generator or a growing backlog both show. *)

module S = Serve.Server
module J = Obs.Json

(* Offered load, fixed by design at about a third of the 1-worker
   capacity measured at the seed commit; never re-derived per run. *)
let rate_per_s = 40.0

(* A session over this latency counts as failed. *)
let latency_limit_ms = 1000.0

(* The graph table: [graphs_per_kind] seeded graphs per kind. *)
let graph_kinds ~small =
  if small then
    [
      ("flood", "layered:300"); ("tree", "random-tree:60"); ("dag", "random-dag:40");
      ("general", "random:10"); ("labeling", "random:8"); ("mapping", "random:6");
    ]
  else
    [
      ("flood", "layered:8000"); ("tree", "random-tree:3000"); ("dag", "random-dag:2000");
      ("general", "random:30"); ("labeling", "random:18"); ("mapping", "random:10");
    ]

let graphs_per_kind = 12

let graph_table ~small seed =
  List.concat
    (List.mapi
       (fun k (proto, base) ->
         List.init graphs_per_kind (fun i ->
             let spec = Printf.sprintf "%s:%d" base (Runs.gseed seed ((100 * k) + i)) in
             (Printf.sprintf "%s%d" proto i, (proto, spec))))
       (graph_kinds ~small))

(* Mostly cheap scalar sessions; the interval protocols are the heavy
   tail that queueing latency feels.  Each block of 20 arrivals holds
   exactly these counts, in a seeded order, so every run offers the same
   mix. *)
let mix =
  [ ("flood", 5); ("tree", 5); ("dag", 5); ("general", 2); ("labeling", 2); ("mapping", 1) ]

let block prng =
  let a = Array.of_list (List.concat_map (fun (p, k) -> List.init k (fun _ -> p)) mix) in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int prng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

type submit = {
  id : string;
  proto : string;
  graph : string;
  sched : string;
  sseed : int;
  due : float;  (** Seconds after the loop starts. *)
  dup_of : int option;  (** Index of the earlier submit this repeats. *)
}

type read = { r_due : float; r_line : string }

(* The whole arrival schedule, a pure function of the seed. *)
let schedule ~seconds seed =
  let prng = Prng.create (seed * 7919) in
  let subs = ref [] and reads = ref [] in
  let by_index = Hashtbl.create 1024 in
  let uses = Hashtbl.create 8 in
  let order = ref (block prng) in
  let t = ref 0.0 in
  (* Exactly [rate * seconds] arrivals at sorted uniform times: a Poisson
     process given its count, so every run offers the same load. *)
  let count = int_of_float (Float.round (rate_per_s *. seconds)) in
  let times = Array.init count (fun _ -> Prng.float prng *. seconds) in
  Array.sort compare times;
  for i = 0 to count - 1 do
    t := times.(i);
    if i > 0 && i mod Array.length !order = 0 then order := block prng;
    let s =
      if i mod 10 = 9 then begin
        (* A duplicate: same graph, protocol, scheduler and seed. *)
        let j = Prng.int prng i in
        let o = Hashtbl.find by_index j in
        { o with id = Printf.sprintf "s%d" i; due = !t; dup_of = Some j }
      end
      else
        let proto = !order.(i mod Array.length !order) in
        (* Each kind cycles through its graphs. *)
        let k = Option.value ~default:0 (Hashtbl.find_opt uses proto) in
        Hashtbl.replace uses proto (k + 1);
        {
          id = Printf.sprintf "s%d" i;
          proto;
          graph = Printf.sprintf "%s%d" proto (k mod graphs_per_kind);
          sched = (if Prng.int prng 2 = 0 then "fifo" else "random");
          sseed = Prng.int prng 1_000_000;
          due = !t;
          dup_of = None;
        }
    in
    subs := s :: !subs;
    Hashtbl.replace by_index i s;
    (* Reads of earlier sessions ride beside the submits. *)
    if i > 0 then begin
      let target = Printf.sprintf "s%d" (Prng.int prng i) in
      let read op =
        let line = Printf.sprintf "{\"op\":\"%s\",\"id\":\"%s\"}" op target in
        reads := { r_due = !t; r_line = line } :: !reads
      in
      match Prng.int prng 4 with 0 | 1 -> read "status" | 2 -> read "result" | _ -> ()
    end
  done;
  (Array.of_list (List.rev !subs), Array.of_list (List.rev !reads))

let submit_line s =
  Printf.sprintf
    "{\"op\":\"submit\",\"id\":\"%s\",\"protocol\":\"%s\",\"graph\":\"%s\",\
     \"scheduler\":\"%s\",\"seed\":%d}"
    s.id s.proto s.graph s.sched s.sseed

let ok_of resp =
  match J.parse resp with
  | Ok v -> Option.bind (J.member "ok" v) J.to_bool_opt = Some true
  | Error _ -> false

let workers () = max 1 (Domain.recommended_domain_count () - 1)

let config ~graphs ~journal =
  {
    S.default_config with
    graphs = List.map (fun (name, (_, spec)) -> (name, spec)) graphs;
    workers = workers ();
    max_queue = 4096;
    credits = 4096;
    journal = Some journal;
    journal_sync = true;
  }

let remove_if_exists f = if Sys.file_exists f then Sys.remove f

(* Submits the traced run replays, in arrival order. *)
let replay_max = 400

(* The traced replay, on CSRs the bench compiles itself: every replayed
   submit goes through [Runner.run] (plain, then with a session [Obs])
   and through the server's default engine with and without the timing
   functor.  The runner's payload must equal the server's byte for byte,
   and the traced report the untraced one. *)
let replay ~graphs ~subs ~jsons ~timeline ~seed =
  let m = Stats.metric in
  let served = Array.to_list (Array.mapi (fun i s -> (s, jsons.(i))) subs) in
  let todo =
    List.filteri (fun i _ -> i < replay_max) (List.filter (fun (_, j) -> j <> None) served)
  in
  let spec_of s = snd (List.assoc s.graph graphs) in
  let specs = List.sort_uniq compare (List.map (fun (s, _) -> spec_of s) todo) in
  let of_spec sp = match Digraph.Families.of_spec sp with Ok g -> g | Error e -> failwith e in
  let gs, gen_s = Stats.time (fun () -> List.map (fun sp -> (sp, of_spec sp)) specs) in
  let csrs, csr_s =
    Stats.time (fun () -> List.map (fun (sp, g) -> (sp, (g, Flatcore.Csr.of_digraph g))) gs)
  in
  let defaults = S.default_config in
  let failed = ref 0 in
  let parse_ns = ref 0 and plain = ref [] and with_obs = ref [] and samples = ref [] in
  List.iteri
    (fun k (s, j) ->
      let line = submit_line s in
      let t0 = Stats.ns () in
      let req = Serve.Proto.parse_request ~default_engine:defaults.S.default_engine line in
      parse_ns := !parse_ns + (Stats.ns () - t0);
      let spec = spec_of s in
      let g, csr = List.assoc spec csrs in
      match req with
      | Ok (Serve.Proto.Submit sub) ->
          let runner obs =
            Stats.time (fun () ->
                Serve.Runner.run ~stop:(fun () -> false) ?obs ~step_limit:defaults.S.step_limit sub
                  csr)
          in
          let obs () = Some (Obs.create ~sample_every:defaults.S.sample_every ()) in
          let (r, t_plain), (_, t_obs) =
            if k mod 2 = 0 then
              let a = runner None in
              (a, runner (obs ()))
            else
              let b = runner (obs ()) in
              (runner None, b)
          in
          plain := (s.proto, t_plain) :: !plain;
          with_obs := t_obs :: !with_obs;
          if Some r.Serve.Runner.json <> j then begin
            incr failed;
            Printf.printf "CHECK FAILED %s: Runner.run payload differs from the served one\n"
              s.id
          end;
          let inst =
            {
              Runs.proto = s.proto;
              spec;
              sched = (if s.sched = "random" then Runs.Rand s.sseed else Runs.Fifo);
              engines =
                [ (if sub.Serve.Proto.sub_engine = "flat" then Runs.Flat else Runs.Classic) ];
              faulted = false;
            }
          in
          let ss =
            Runs.exec ~tamper:Runs.No_tamper ~trace:true ~traced_first:(k mod 2 = 1) ~timeline
              seed (inst, g, csr)
          in
          List.iter (fun x -> if not x.Runs.s_ok then incr failed) ss;
          samples := ss @ !samples
      | _ ->
          incr failed;
          Printf.printf "CHECK FAILED %s: submit line does not parse\n" s.id)
    todo;
  let samples = List.rev !samples in
  let generic, split = Runs.layers ~gen_s ~csr_s ~first:samples samples in
  let plain_s = List.fold_left (fun a (_, t) -> a +. t) 0.0 !plain in
  let obs_s = List.fold_left ( +. ) 0.0 !with_obs in
  let runner_rows =
    List.concat_map
      (fun (p, _) ->
        let ts =
          List.filter_map (fun (q, t) -> if q = p then Some (t *. 1000.0) else None) !plain
        in
        if ts = [] then []
        else
          [
            m (Printf.sprintf "runner.%s.run_ms.p50" p) "ms" (Stats.median ts);
            m (Printf.sprintf "runner.%s.run_ms.p99" p) "ms" (Stats.tail ts);
          ])
      mix
  in
  let serve_split =
    [
      m "proto.parse_us" "us"
        (float_of_int !parse_ns /. 1000.0 /. float_of_int (max 1 (List.length todo)));
      m "obs.session_overhead_frac" "frac" (Runs.frac obs_s plain_s -. 1.0);
    ]
    @ runner_rows
  in
  (generic, split @ serve_split, !failed)

(* The load runs in this many consecutive episodes, each on a fresh
   server: a session's latency then does not depend on how many sessions
   an earlier part of the run left in the server's heap, so it does not
   depend on the run's length either. *)
let episodes = 8

let run ~small ~seed ~seconds ~trace ~tamper ~work_dir ~trace_file =
  let graphs = graph_table ~small seed in
  let journal = Filename.concat work_dir (Printf.sprintf "journal-%d.wal" (Unix.getpid ())) in
  let subs, reads = schedule ~seconds seed in
  let n = Array.length subs in
  let nconn = Domain.recommended_domain_count () in
  (* Set-up samples: the episodes' own servers, plus create/stop rounds
     up to nine. *)
  let setup_times = ref [] in
  let create () =
    remove_if_exists journal;
    let (s, dt), f =
      Stats.Calib.factor_around (fun () ->
          Stats.time (fun () ->
              match S.create ~config:(config ~graphs ~journal) () with
              | Ok s ->
                  S.start_workers s;
                  s
              | Error e -> failwith ("Server.create: " ^ e)))
    in
    setup_times := (dt *. f) :: !setup_times;
    s
  in
  for _ = 1 to max 0 (9 - episodes) do
    S.stop (create ())
  done;
  (* Timeline clock is settable, so session spans can be laid down after
     the fact at their true due and finish times. *)
  let fixed = ref None in
  let timeline =
    Obs.Timeline.create
      ~clock:(fun () -> match !fixed with Some t -> t | None -> Unix.gettimeofday ())
      ~capacity:(1 lsl 18) ()
  in
  let at t f =
    fixed := Some t;
    f ();
    fixed := None
  in
  let ack_ms = Array.make n nan and refused = Array.make n false in
  let due_abs = Array.make n 0.0 in
  let finals = Array.make n (Serve.Session.Failed (Serve.Proto.Unknown_id, "lost")) in
  let finished = Array.make n None in
  let read_ms = ref [] and gen_lag_ms = ref [] and depth = ref [] in
  let wall = ref 0.0 and jstats = ref [] and unreconciled = ref 0 in
  let sum_deliveries_of is =
    List.fold_left
      (fun acc i ->
        match finals.(i) with
        | Serve.Session.Done j -> (
            match J.parse j with
            | Ok v ->
                acc + Option.value ~default:0 (Option.bind (J.member "deliveries" v) J.to_int_opt)
            | Error _ -> acc)
        | _ -> acc)
      0 is
  in
  (* Calibrations before and after each episode, while the worker is
     idle: a kernel run beside a busy worker would time the worker's
     stop-the-world collections too.  A session's latency is scaled by
     the mean of its episode's two. *)
  let cals = ref [] in
  let calibrate () = cals := (Unix.gettimeofday (), Stats.Calib.measure ()) :: !cals in
  let span = seconds /. float_of_int episodes in
  let episode_of s = min (episodes - 1) (int_of_float (s.due /. span)) in
  let ri = ref 0 in
  for e = 0 to episodes - 1 do
    let lo = span *. float_of_int e in
    let mine = List.filter (fun i -> episode_of subs.(i) = e) (List.init n Fun.id) in
    let server = create () in
    calibrate ();
    let t_start = Unix.gettimeofday () +. 0.01 in
    List.iter
      (fun i ->
        let s = subs.(i) in
        let due = t_start +. (s.due -. lo) in
        due_abs.(i) <- due;
        let d = due -. Unix.gettimeofday () in
        if d > 0.0 then Unix.sleepf d;
        gen_lag_ms := ((Unix.gettimeofday () -. due) *. 1000.0) :: !gen_lag_ms;
        depth := float_of_int (S.queue_length server) :: !depth;
        Obs.Timeline.begin_span timeline ~track:0 "submit";
        let conn = i mod nconn in
        let resp, dt = Stats.time (fun () -> S.handle_line server ~conn (submit_line s)) in
        Obs.Timeline.end_span timeline ~track:0 "submit";
        ack_ms.(i) <- dt *. 1000.0;
        if not (ok_of resp) then begin
          refused.(i) <- true;
          Printf.printf "REFUSED %s: %s\n" s.id resp
        end;
        while !ri < Array.length reads && reads.(!ri).r_due <= s.due do
          let _, dt = Stats.time (fun () -> S.handle_line server ~conn reads.(!ri).r_line) in
          read_ms := (dt *. 1000.0) :: !read_ms;
          incr ri
        done)
      mine;
    let t_last = ref (Unix.gettimeofday ()) in
    List.iter
      (fun i ->
        (match S.await server subs.(i).id with Some st -> finals.(i) <- st | None -> ());
        finished.(i) <- S.session_times server subs.(i).id;
        match finished.(i) with Some (_, f) -> t_last := Float.max !t_last f | None -> ())
      mine;
    calibrate ();
    wall := !wall +. (!t_last -. t_start);
    (* The rollup contract: the server's counter equals the sum over the
       results it published. *)
    let metrics_resp = S.handle_line server ~conn:0 "{\"op\":\"metrics\"}" in
    let counted =
      match J.parse metrics_resp with
      | Ok v ->
          Option.bind (J.member "result" v) (fun r ->
              Option.bind (J.member "counters" r) (fun c ->
                  Option.bind (J.member "sessions.engine.deliveries" c) J.to_int_opt))
      | Error _ -> None
    in
    if counted <> Some (sum_deliveries_of mine) then begin
      incr unreconciled;
      Printf.printf
        "CHECK FAILED: episode %d: sessions.engine.deliveries is not the sum of its results\n" e
    end;
    Option.iter (fun js -> jstats := js :: !jstats) (S.journal_stats server);
    S.stop server;
    remove_if_exists journal;
    (* The next episode starts from a compacted heap, as a fresh server
       process would. *)
    Gc.compact ()
  done;
  let setup_s = Stats.median !setup_times in
  let cals = Array.of_list (List.rev !cals) in
  let factor_at t =
    let n = Array.length cals in
    let j = ref 0 in
    while !j < n - 1 && fst cals.(!j + 1) <= t do incr j done;
    let before = snd cals.(!j) and after = snd cals.(min (n - 1) (!j + 1)) in
    Stats.Calib.nominal_s /. ((before +. after) /. 2.0)
  in
  let wall = !wall in
  (* {2 Checks} *)
  let failed = ref 0 in
  let fail i why =
    incr failed;
    Printf.printf "CHECK FAILED %s: %s\n" subs.(i).id why
  in
  let jsons =
    Array.mapi
      (fun i st ->
        match st with
        | Serve.Session.Done j ->
            Some (if tamper && subs.(i).dup_of <> None then j ^ " " else j)
        | st ->
            if not refused.(i) then fail i ("ended " ^ Serve.Session.state_name st);
            None)
      finals
  in
  let int_member name v = Option.bind (J.member name v) J.to_int_opt in
  let sum_deliveries = ref 0 and completed = ref 0 in
  let latencies = ref [] in
  Array.iteri
    (fun i j ->
      if refused.(i) then fail i "refused"
      else
        match j with
        | None -> ()
        | Some j -> (
            incr completed;
            (match J.parse j with
            | Error _ -> fail i "unparseable result"
            | Ok v ->
                let d = Option.value ~default:0 (int_member "deliveries" v) in
                sum_deliveries := !sum_deliveries + d;
                (* Flood never accepts: it ends when nothing is in flight. *)
                let expected = if subs.(i).proto = "flood" then "quiescent" else "terminated" in
                if Option.bind (J.member "outcome" v) J.to_string_opt <> Some expected then
                  fail i ("outcome is not " ^ expected)
                else if Option.bind (J.member "all_visited" v) J.to_bool_opt <> Some true then
                  fail i "a vertex was not visited");
            (match subs.(i).dup_of with
            | Some k when jsons.(k) <> Some j ->
                fail i ("result differs from its duplicate " ^ subs.(k).id)
            | _ -> ());
            match finished.(i) with
            | Some (_, f) ->
                let ms = (f -. due_abs.(i)) *. 1000.0 in
                latencies := (episode_of subs.(i), ms *. factor_at due_abs.(i)) :: !latencies;
                if ms > latency_limit_ms then
                  fail i (Printf.sprintf "latency %.1f ms over the limit" ms)
            | None -> fail i "no finish time"))
    jsons;
  failed := !failed + !unreconciled;
  let attempted = n + episodes in
  (* Session spans, one lane per overlap level. *)
  let lanes = ref [] in
  Array.iteri
    (fun i s ->
      match finished.(i) with
      | Some (_, f) ->
          let due = due_abs.(i) in
          let rec lane k = function
            | [] -> (k, [ f ])
            | e :: rest when e <= due -> (k, f :: rest)
            | e :: rest ->
                let k', rest' = lane (k + 1) rest in
                (k', e :: rest')
          in
          let k, l = lane 1 !lanes in
          lanes := l;
          let name = Printf.sprintf "session %s %s/%s" s.id s.proto s.graph in
          at due (fun () -> Obs.Timeline.begin_span timeline ~track:k name);
          at f (fun () -> Obs.Timeline.end_span timeline ~track:k name)
      | None -> ())
    subs;
  let m = Stats.metric in
  (* Percentiles per episode, then the median over the episodes: one
     episode hit by a rare stall moves the figure by a rank, not by its
     size. *)
  let per_episode =
    List.init episodes (fun e ->
        List.filter_map (fun (e', ms) -> if e = e' then Some ms else None) !latencies)
    |> List.filter (fun l -> l <> [])
  in
  let tails = List.map Stats.tail per_episode in
  let p50s = List.map Stats.median per_episode in
  let lat = !latencies in
  let tail = Stats.tail_pct (List.length lat / episodes) in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "deliveries_per_s" "1/s" (float_of_int !sum_deliveries /. wall);
      m "sessions_per_s" "1/s" (float_of_int !completed /. wall);
      m "peak_heap_mb" "MB" (Stats.peak_heap_mb ());
      m "ok_frac" "frac" (1.0 -. (float_of_int !failed /. float_of_int attempted));
    ]
  in
  (* Session latency is a layer metric: on a shared 2-core box its
     run-to-run spread exceeds any bound worth gating on (see README). *)
  let latency =
    [ m "session_p50_ms" "ms" (Stats.median p50s); m "session_tail_ms" "ms" (Stats.median tails) ]
  in
  Printf.printf "serve-mix seed %d: %d submits at %.0f/s offered, %d workers, %d reads\n" seed n
    rate_per_s (workers ()) (List.length !read_ms);
  Printf.printf "session tail: p%.2f of ~%d sessions per episode, median of %d episodes\n" tail
    (List.length lat / episodes) episodes;
  List.iteri
    (fun e (p, t) -> Printf.printf "  episode %d: p50 %.3f ms, tail %.3f ms\n" e p t)
    (List.combine p50s tails);
  let acks = Array.to_list ack_ms |> List.filter (fun x -> not (Float.is_nan x)) in
  (* From the server's submit stamp to its finish stamp. *)
  let in_server =
    Array.to_list finished |> List.filter_map (Option.map (fun (a, b) -> (b -. a) *. 1000.0))
  in
  let jsum f = float_of_int (List.fold_left (fun a js -> a + f js) 0 !jstats) in
  let journal_rows =
    [
      m "journal.fsyncs_per_append" "ratio"
        (Runs.frac
           (jsum (fun js -> js.Serve.Journal.s_fsyncs))
           (jsum (fun js -> js.Serve.Journal.s_appends)));
      m "journal.bytes_per_session" "bytes"
        (Runs.frac (jsum (fun js -> js.Serve.Journal.s_bytes)) (float_of_int n));
    ]
  in
  let serve_rows =
    [
      m "serve.ack_ms.p50" "ms" (Stats.median acks);
      m "serve.ack_ms.p99" "ms" (Stats.tail acks);
      m "serve.in_server_ms.p50" "ms" (Stats.median in_server);
      m "serve.in_server_ms.p99" "ms" (Stats.tail in_server);
      m "serve.read_ms.p50" "ms" (Stats.median !read_ms);
      m "serve.read_ms.p99" "ms" (Stats.tail !read_ms);
      m "sched.queue_depth.p50" "count" (Stats.median !depth);
      m "sched.queue_depth.max" "count" (List.fold_left Float.max 0.0 !depth);
      m "sched.refused_frac" "frac"
        (float_of_int (Array.fold_left (fun a r -> if r then a + 1 else a) 0 refused)
        /. float_of_int n);
      m "serve.gen_lag_ms.p50" "ms" (Stats.median !gen_lag_ms);
      m "serve.gen_lag_ms.max" "ms" (List.fold_left Float.max 0.0 !gen_lag_ms);
      m "server.create_s" "s" setup_s;
    ]
    @ journal_rows
  in
  let layers =
    if not trace then []
    else begin
      let generic, split, replay_failed = replay ~graphs ~subs ~jsons ~timeline ~seed in
      failed := !failed + replay_failed;
      Stats.table "per-protocol split (traced replay)" split;
      Stats.table "serve layers" serve_rows;
      Runs.write_trace ~workload:"serve-mix" trace_file timeline;
      generic
    end
  in
  Stats.table "end-to-end" (e2e @ latency);
  Printf.printf "  %-40s %16.6g %s\n" "failed_frac"
    (float_of_int !failed /. float_of_int attempted) "frac";
  if trace then Stats.table "per-layer" (latency @ layers)
  else Stats.table "serve layers" serve_rows;
  (!failed = 0, attempted, !failed, if trace then latency @ layers else e2e)
