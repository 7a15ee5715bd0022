(* Fault dropping: what stopping a fault at its final verdict is worth.

   One synthesized resistor-grid campaign (sparse-solver territory: the
   10x10 grid has 101 unknowns, past the Auto threshold) is run twice on
   a single domain: once as the default campaign, which stops each
   fault's transient the moment its detection verdict is final, and once
   through a bench-local loop that runs every faulty transient to tstop
   on the same kind of session (patch, simulate, Detect.analyse).  The
   two differ only in fault dropping.  The acceptance point: the
   campaign must beat the full-transient loop by >= 3x end to end on a
   >= 200-fault campaign while producing a bit-identical detection table
   (the full Report.csv string, which carries every fault's outcome,
   detection time and attempt count, is compared verbatim). *)

let tran = { Netlist.Parser.tstep = 1e-7; tstop = 4e-6; uic = false }

let rows = 10

let cols = 10

let max_faults = 240

(* The default campaign without its early stop: the nominal run and
   every fault through {!Helpers.full_transient_in} on one session. *)
let full_transient (config : Anafault.Simulate.config) circuit faults =
  let wall0 = Unix.gettimeofday () and cpu0 = Sys.time () in
  let { Netlist.Parser.tstep; tstop; uic } = config.tran in
  let sess = Anafault.Simulate.session config circuit in
  let wf, nominal_stats = Sim.Engine.Session.transient sess ~tstep ~tstop ~uic in
  let nominal = Sim.Waveform.resample wf ~n:config.samples in
  let results =
    List.map (Helpers.full_transient_in config sess ~nominal) faults
  in
  {
    Anafault.Simulate.config;
    nominal;
    nominal_stats;
    results;
    wall_seconds = Unix.gettimeofday () -. wall0;
    cpu_seconds = Sys.time () -. cpu0;
  }

let run () =
  Helpers.banner "Fault dropping: early stop vs full transients";
  let circuit = Synth.Circuit_synth.resistor_grid ~rows ~cols () in
  let faults =
    Faults.Universe.build circuit |> List.filteri (fun i _ -> i < max_faults)
  in
  let total = List.length faults in
  let observed = Anafault.Simulate.default_observed circuit in
  (* The paper's 2 V tolerance is sized for a 5 V oscillator; on a
     resistive divider network the faulty deviations are tens of
     millivolts, so the detection threshold is scaled down accordingly -
     otherwise nothing is detected and nothing can be dropped. *)
  let tolerance = { Anafault.Detect.tol_v = 1e-3; tol_t = 0.2e-6 } in
  let config = Anafault.Simulate.default_config ~tran ~observed ~tolerance () in
  Printf.printf
    "  resistor grid %dx%d (%d unknowns, sparse backend), %d faults,\n\
    \  observing %s; transient %.0e s in %.0e s steps; 1 domain\n\n"
    rows cols
    ((rows * cols) + 1)
    total observed tran.Netlist.Parser.tstop tran.Netlist.Parser.tstep;
  Helpers.row "  %-16s %9s %9s  %s\n" "path" "wall_s" "speedup" "table";
  let full = full_transient config circuit faults in
  let full_csv = Anafault.Report.csv full in
  let full_s = full.Anafault.Simulate.wall_seconds in
  let detected, undetected, failed = Anafault.Simulate.tally full in
  Helpers.row "  %-16s %9.3f %8.2fx  %s\n" "full transient" full_s 1.0
    (Printf.sprintf "reference (%d detected / %d undetected / %d failed)"
       detected undetected failed);
  let dropped = fst (Anafault.Parsim.execute config circuit faults) in
  let identical = String.equal (Anafault.Report.csv dropped) full_csv in
  let wall = dropped.Anafault.Simulate.wall_seconds in
  let speedup = if wall > 0.0 then full_s /. wall else Float.infinity in
  Helpers.row "  %-16s %9.3f %8.2fx  %s\n" "fault dropping" wall speedup
    (if identical then "identical" else "DIFFERS");
  Printf.printf
    "\n  fault-dropping speedup >= 3x: %s (%.2fx); detection tables identical: %s\n"
    (if speedup >= 3.0 then "yes" else "NO")
    speedup
    (if identical then "yes" else "NO")
