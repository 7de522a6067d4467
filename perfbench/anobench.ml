(* anobench — the repository's benchmark.

     anobench --workload NAME --seed N --seconds S --trace 0|1
              [--small] [--tamper map|parity|result]

   Workloads: interval-protocols, scalar-engines, serve-mix (README.md
   says why each exists).  [--trace 0] prints the end-to-end metrics,
   [--trace 1] the per-layer ones from a separate traced run; either way
   the last stdout line is one JSON object.  [--small] shrinks every
   input for the self-test; [--tamper] is a negative control that must
   make the correctness checks fail. *)

let usage () =
  prerr_endline
    "usage: anobench --workload interval-protocols|scalar-engines|serve-mix --seed N \
     --seconds S --trace 0|1 [--small] [--tamper map|parity|result]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let small = ref false and tamper = ref "" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: s :: rest ->
        (match int_of_string_opt s with Some s -> seed := s | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with Some s when s > 0.0 -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: t :: rest ->
        (match t with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | "--small" :: rest ->
        small := true;
        parse rest
    | "--tamper" :: t :: rest ->
        tamper := t;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let work_dir = Filename.concat "perfbench" "_work" in
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let trace_file =
    if !trace then
      Some (Filename.concat work_dir (Printf.sprintf "trace-%s-%d.json" !workload !seed))
    else None
  in
  let correct, attempted, failed, metrics =
    match (!workload, !tamper) with
    | ("interval-protocols" | "scalar-engines"), ("" | "map" | "parity") ->
        let tamper =
          match !tamper with
          | "map" -> Runs.Tamper_map
          | "parity" -> Runs.Tamper_parity
          | _ -> Runs.No_tamper
        in
        Runs.run ~workload:!workload ~small:!small ~seed:!seed ~seconds:!seconds ~trace:!trace
          ~tamper ~trace_file
    | "serve-mix", ("" | "result") ->
        Serve_mix.run ~small:!small ~seed:!seed ~seconds:!seconds ~trace:!trace
          ~tamper:(!tamper = "result") ~work_dir ~trace_file
    | _ -> usage ()
  in
  print_endline (Stats.result_line ~correct ~attempted ~failed metrics)
