(* The benchmark driver: run one workload for one seed and print its
   metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   With --trace 0 every op runs untraced and the result carries the
   end-to-end metrics; with --trace 1 every other op is traced and the
   result carries the per-layer metrics, plus obs.overhead_share, the
   traced op median over the untraced one, minus 1.  The last line of
   standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   The lines above it name each figure with its unit. *)

let workloads =
  [
    ("vco_campaign", Campaigns.run Campaigns.vco);
    ("grid_campaign", Campaigns.run Campaigns.grid);
    ("lift_array", Lift_array.run);
    ("daemon_roundtrip", Daemon.run);
  ]

let end_to_end = [ ("setup_s", "s"); ("op_s", "s"); ("peak_rss_mb", "MiB") ]

(* Every per-layer metric, whichever workload produces it; a workload
   that does not exercise a layer reports 0 for it. *)
let per_layer =
  (("obs.overhead_share", "ratio") :: ("perfbench.ops", "count") :: Campaigns.layers)
  @ Lift_array.layers @ Daemon.layers

let metric_json (name, unit_, value) =
  ( name,
    Obs.Json.Obj [ ("value", Obs.Json.Float value); ("unit", Obs.Json.String unit_) ] )

let run workload seed seconds trace smoke =
  let ctx =
    {
      Measure.seed;
      seconds;
      trace;
      smoke;
      work = ".perfbench-run";
      daemon_exe =
        Filename.concat
          (Filename.dirname (Filename.dirname Sys.executable_name))
          "bin/anafaultd_main.exe";
    }
  in
  Measure.fresh_dir ctx.work;
  let p =
    Fun.protect ~finally:(fun () -> Measure.rm_rf ctx.work) (fun () ->
        (List.assoc workload workloads) ctx)
  in
  let op_s = Measure.median p.plain in
  let e2e =
    [ ("setup_s", p.setup_s); ("op_s", op_s); ("peak_rss_mb", p.peak_rss_mb) ]
  in
  let ops = List.length p.plain + List.length p.traced in
  let metrics =
    if not trace then List.map (fun (n, u) -> (n, u, List.assoc n e2e)) end_to_end
    else
      let layers =
        ("obs.overhead_share", (Measure.median p.traced /. op_s) -. 1.)
        :: ("perfbench.ops", float_of_int ops)
        :: p.layers
      in
      List.map
        (fun (n, u) -> (n, u, Option.value ~default:0. (List.assoc_opt n layers)))
        per_layer
  in
  List.iter
    (fun (n, u, v) -> Printf.printf "%-16s %-26s %12.6g %s\n" workload n v u)
    (p.figures @ List.map (fun (n, u) -> (n, u, List.assoc n e2e)) end_to_end);
  let q x = Measure.quantile x (p.plain @ p.traced) in
  Printf.printf "%-16s %-26s %12d in %g s; op seconds p25 %.4g p50 %.4g p75 %.4g\n"
    workload "ops" ops seconds (q 0.25) (q 0.5) (q 0.75);
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) p.errors;
  let json =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool (p.errors = []));
        ("attempted", Obs.Json.Int p.attempted);
        ("failed", Obs.Json.Int p.failed);
        ("metrics", Obs.Json.Obj (List.map metric_json metrics));
      ]
  in
  print_endline (Obs.Json.to_string json)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. in
  let trace = ref 0 and smoke = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long the op loop measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--smoke", Arg.Set smoke, " tiny sizes (self-test)");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem_assoc !workload workloads) then begin
    prerr_endline
      ("unknown workload " ^ !workload ^ "; one of "
      ^ String.concat ", " (List.map fst workloads));
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  (* Interrupted runs unwind, so the daemon a run started is stopped. *)
  Sys.catch_break true;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Sys.Break));
  run !workload !seed !seconds (!trace = 1) !smoke
