(* Benchmark entry point: runs one workload in this process.

     kbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints human-readable lines, then one line "RESULT {json}" with every
   metric the run measured; perfbench/run.py selects the ones
   BENCHMARK.json names. Exits 1 when a correctness check failed. *)

let usage () =
  prerr_endline
    "usage: kbench.exe --workload mc-get-zipf|redis-guard-burst|admit-corpus \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let trace = !trace = 1 in
  let spans_path =
    Printf.sprintf ".bench_out/spans-%s-seed%d.csv" !workload !seed
  in
  let rep = Report.create () in
  let run_serve spec ~seconds =
    Serve.run spec ~seed:!seed ~seconds ~trace ~spans_path rep
  in
  (* Traced serve runs also report the admission layers: mc-get-zipf's
     over the whole admission corpus (the admit-corpus loop, for 30% of
     the run), redis-guard-burst's over its own tenants. *)
  (match !workload with
  | "mc-get-zipf" ->
      if trace then begin
        run_serve Serve.mc_get_zipf ~seconds:(0.7 *. !seconds);
        Admit.run ~layers_only:true ~seed:!seed ~seconds:(0.3 *. !seconds) ~trace ~spans_path rep
      end
      else run_serve Serve.mc_get_zipf ~seconds:!seconds
  | "redis-guard-burst" ->
      run_serve Serve.redis_guard_burst ~seconds:!seconds;
      if trace then Admit.tenant_layers rep (Serve.tenants Serve.redis_guard_burst) ~reps:20
  | "admit-corpus" ->
      Admit.run ~seed:!seed ~seconds:!seconds ~trace ~spans_path rep;
      if trace then Serve.report_idle rep
  | _ -> usage ());
  if not (Report.print ~workload:!workload rep) then exit 1
