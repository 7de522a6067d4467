(* Clocks, order statistics and the result line. *)

(* CLOCK_MONOTONIC in nanoseconds, unboxed and allocation-free, so a timer
   around a protocol callback does not perturb the minor-word counts it
   sits next to. *)
external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

(* Keeps the stub library linked: the external above names its symbol. *)
let _ = Monotonic_clock.now

let ns () = Int64.to_int (now_ns ())
let secs_since t0 = float_of_int (ns () - t0) *. 1e-9

(* Linear-interpolated percentile of an unsorted sample; nan when empty. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 50.0 xs

(* The highest percentile with at least ten samples beyond it, capped at
   99: a tail figure that is never read off the last few samples.  Under
   twenty samples no such percentile lies above the median; then the
   median. *)
let tail_pct n = Float.max 50.0 (Float.min 99.0 (100.0 *. (1.0 -. (10.0 /. float_of_int n))))

(* That percentile of a sample. *)
let tail xs = percentile (tail_pct (List.length xs)) xs

(* The tail figure of a run: the sessions, in the order they ran, cut
   into consecutive blocks of at least [block] (one block when there
   are fewer), each block's {!tail_pct} percentile, and the median over
   the blocks.  A rare monster instance or stall then moves the figure
   by one block's rank, not by its own size. *)
let blocked_tail ~block xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let k = max 1 (n / block) in
  let part j = Array.to_list (Array.sub a (j * n / k) (((j + 1) * n / k) - (j * n / k))) in
  median (List.init k (fun j -> tail (part j)))

let time f =
  let t0 = ns () in
  let r = f () in
  (r, secs_since t0)

(* {1 Output}

   Human-readable lines go to stdout as they are produced; the last line
   is the single JSON object the contract asks for. *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let b = Buffer.create 512 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name
        (json_float m.m_value) m.m_unit)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let table title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-40s %16.6g %s\n" m.m_name m.m_value m.m_unit)
    rows

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* {1 Calibration}

   The box this runs on changes speed by up to half for tens of seconds
   at a time (a busy sibling hardware thread), which no averaging inside
   a 20-second run removes.  So every timed interval is scaled by the
   box's speed at that moment: the fastest of three runs of a fixed
   kernel, measured next to the interval, against the kernel's time in
   the box's fast state.  The kernel is the benchmark's own code — a
   persistent integer map built and folded, allocation and compares like
   the library's — so no change to the library can move it. *)
module Calib = struct
  module IM = Map.Make (Int)

  let kernel () =
    let m = ref IM.empty and x = ref 12345 in
    for _ = 1 to 6000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      m := IM.add (!x land 0xffff) !x !m
    done;
    ignore (Sys.opaque_identity (IM.fold (fun k v acc -> acc lxor (k + v)) !m 0))

  (* The kernel's time in the fast state of the 2-core x86 box the
     benchmark was defined on; calibrated times read as that state's. *)
  let nominal_s = 1.6e-3

  let measure () =
    let best = ref infinity in
    for _ = 1 to 3 do
      let (), t = time kernel in
      if t < !best then best := t
    done;
    !best

  (* Runs a chunk of work between two calibrations (the closing one
     opens the next chunk) and returns the factor its wall times are
     multiplied by: the nominal time over the mean of the two. *)
  let last = ref nan

  let factor_around f =
    if Float.is_nan !last then last := measure ();
    let before = !last in
    let r = f () in
    last := measure ();
    (r, nominal_s /. ((before +. !last) /. 2.0))
end
