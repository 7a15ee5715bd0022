(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's experiment index), then runs the
   bechamel micro-suite.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- quick   # skip ablations and micro-benchmarks
     dune exec bench/main.exe -- batch   # only the session/scheduler experiment
     dune exec bench/main.exe -- obs     # only the telemetry-overhead experiment
     dune exec bench/main.exe -- solver  # only the solver-backend crossover
     dune exec bench/main.exe -- batch-faults  # only the fault-dropping experiment
     dune exec bench/main.exe -- lift    # only the staged-pipeline scaling experiment
*)

let () =
  let quick = Array.exists (String.equal "quick") Sys.argv in
  let batch_faults_only = Array.exists (String.equal "batch-faults") Sys.argv in
  let batch_only =
    (not batch_faults_only) && Array.exists (String.equal "batch") Sys.argv
  in
  let obs_only = Array.exists (String.equal "obs") Sys.argv in
  let solver_only = Array.exists (String.equal "solver") Sys.argv in
  let lift_only = Array.exists (String.equal "lift") Sys.argv in
  Printf.printf
    "Reproduction harness: Sebeke/Teixeira/Ohletz, DATE 1995\n\
     'Automatic Fault Extraction and Simulation of Layout Realistic Faults\n\
     for Integrated Analogue Circuits'\n";
  if batch_faults_only then begin
    Exp_batch_faults.run ();
    Helpers.banner "Done";
    exit 0
  end;
  if batch_only then begin
    Exp_batch.run ();
    Helpers.banner "Done";
    exit 0
  end;
  if obs_only then begin
    Exp_obs.run ();
    Helpers.banner "Done";
    exit 0
  end;
  if solver_only then begin
    Exp_solver.run ();
    Helpers.banner "Done";
    exit 0
  end;
  if lift_only then begin
    Exp_lift.run ();
    Helpers.banner "Done";
    exit 0
  end;
  Exp_tab1.run ();
  Exp_counts.run ();
  Exp_l2rfm.run ();
  Exp_fig4.run ();
  let fig5_run = Exp_fig5.run () in
  Exp_fig6.run ();
  Exp_models.run ();
  if not quick then begin
    Exp_montecarlo.run ();
    Exp_testprep.run ();
    Exp_batch.run ();
    Exp_ablation.run fig5_run;
    Exp_obs.run ();
    Exp_solver.run ();
    Exp_batch_faults.run ();
    Exp_lift.run ();
    Micro.run ()
  end;
  Helpers.banner "Done"
