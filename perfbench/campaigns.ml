(* vco_campaign and grid_campaign: one op is one whole AnaFAULT
   campaign, built from deck text, fault-list text and JSON options and
   run through Campaign.compile and Campaign.run_local.

   Each op runs the faults in its own order, drawn from a stream the
   seed starts: the cost of a campaign depends a little on the order
   (lock-step batches group neighbours), so a run's median averages
   over orders instead of carrying one order's cost.  Results sorted by
   fault id do not depend on the order, so every op's sorted detection
   CSV must equal the first op's, and the tally must be the paper's. *)

open Anafault

type shape = {
  deck : string;
  observed : string option;
  faults : Faults.Fault.t list;
  options : string;  (** Campaign options as JSON; absent fields default *)
  expect : int * int * int;  (** detected, undetected, failed *)
}

(* The paper's Fig. 5 experiment: the 26-MOS VCO, its LIFT faults,
   source model, 2 V / 0.2 us tolerance, observing node 11 (the deck's
   default node, its last, would detect almost nothing). *)
let vco ~smoke () =
  let schematic = Cat.Demo.schematic () in
  let lift =
    Cat.run_glrfm ~extractor_options:Cat.Demo.extractor_options
      ~golden:schematic (Cat.Demo.mask ())
  in
  let faults = Defects.Lift.ranked lift.Cat.lift in
  {
    deck = Netlist.Printer.deck_to_string ~tran:Vco.Schematic.tran schematic;
    observed = Some Vco.Schematic.out_node;
    faults = (if smoke then List.filteri (fun i _ -> i < 6) faults else faults);
    options = "{}";
    expect = (if smoke then (6, 0, 0) else (58, 7, 0));
  }

let grid_tran = { Netlist.Parser.tstep = 1e-7; tstop = 4e-6; uic = false }

(* The linear contrast: a pulse-driven resistor grid whose schematic
   fault universe is simulated at a 1 mV / 0.2 us tolerance (its faulty
   deviations are millivolts, not volts). *)
let grid_deck ~rows ~cols =
  let circuit = Synth.Circuit_synth.resistor_grid ~rows ~cols () in
  (Netlist.Printer.deck_to_string ~tran:grid_tran circuit, Faults.Universe.build circuit)

let grid_options = {|{"tolerance": {"tol_v": 1e-3, "tol_t": 2e-7}}|}

let grid ~smoke () =
  let n, rows, expect = if smoke then (12, 3, (10, 2, 0)) else (240, 10, (220, 20, 0)) in
  let deck, universe = grid_deck ~rows ~cols:rows in
  {
    deck;
    observed = None;
    faults = List.filteri (fun i _ -> i < n) universe;
    options = grid_options;
    expect;
  }

let options_of_text text =
  match Result.bind (Obs.Json.of_string text) Campaign.options_of_json with
  | Ok o -> o
  | Error e -> failwith ("campaign options: " ^ e)

let spec_of shape faults =
  {
    Campaign.deck = shape.deck;
    observed = shape.observed;
    faults = Faults.Fault_list.to_string faults;
    options = options_of_text shape.options;
  }

let sorted_csv (r : Campaign.result) =
  Report.csv_of_results
    (List.sort
       (fun (a : Outcome.fault_result) (b : Outcome.fault_result) ->
         compare a.fault.Faults.Fault.id b.fault.Faults.Fault.id)
       r.results)

let add (a : Sim.Engine.stats) (b : Sim.Engine.stats) =
  {
    Sim.Engine.newton_iterations = a.newton_iterations + b.newton_iterations;
    accepted_steps = a.accepted_steps + b.accepted_steps;
    rejected_steps = a.rejected_steps + b.rejected_steps;
  }

(* The per-layer view of one op: exact counts from the public result,
   times from the telemetry the traced op collected. *)
let layers_of (local : Campaign.local) events =
  let results = local.result.Campaign.results in
  let nominal = local.run.Simulate.nominal_stats in
  let faults =
    List.fold_left
      (fun acc (r : Outcome.fault_result) -> add acc r.stats)
      { Sim.Engine.newton_iterations = 0; accepted_steps = 0; rejected_steps = 0 }
      results
  in
  let all = add faults nominal in
  let n = List.length results in
  let cpu = Measure.sum (List.map (fun (r : Outcome.fault_result) -> r.cpu_seconds) results) in
  let d, u, f = Campaign.tally local.result in
  let fl = float_of_int in
  let exact =
    [
      ("sim.newton_iterations", fl all.newton_iterations);
      ("sim.rejected_steps", fl all.rejected_steps);
      ("sim.iters_per_step", fl all.newton_iterations /. fl (max 1 all.accepted_steps));
      ( "sim.us_per_iteration",
        1e6 *. cpu /. fl (max 1 faults.newton_iterations) );
      ( "anafault.steps_share",
        fl faults.accepted_steps /. fl (max 1 (n * nominal.accepted_steps)) );
      ("anafault.detected", fl d);
      ("anafault.undetected", fl u);
      ("anafault.failed", fl f);
      ( "anafault.retried",
        fl
          (List.length
             (List.filter
                (fun (r : Outcome.fault_result) -> List.length r.attempts > 1)
                results)) );
    ]
  in
  match events with
  | None -> exact
  | Some ev ->
    exact
    @ [
        (* One factor-and-solve per linear solve, whichever backend:
           one backend counts them as [solver.*.factor_solve], another
           as [solver.*.solve] beside its separate factor counters. *)
        ( "solver.factor_solves",
          fl
            (Measure.count_where ev (fun name ->
                 String.starts_with ~prefix:"solver." name
                 && (String.ends_with ~suffix:".factor_solve" name
                    || String.ends_with ~suffix:".solve" name))) );
        ("solver.lu_s", Measure.sample_sum ev "engine.lu.seconds_per_solve");
        ( "anafault.unattributed_s",
          local.result.wall_seconds -. Measure.span_seconds ev "anafault.nominal" -. cpu );
      ]

let run shape_of (ctx : Measure.ctx) =
  let rng = Random.State.make [| ctx.seed |] in
  let setup () =
    let shape = shape_of ~smoke:ctx.smoke () in
    (match Campaign.compile (spec_of shape shape.faults) with
    | Ok _ -> ()
    | Error e -> failwith ("campaign spec: " ^ e));
    shape
  in
  let setups = ref [] in
  let shape = Measure.timed_setup setups setup in
  let errors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let first_csv = ref None in
  let per_op = ref [] and fault_s = ref [] in
  let op ~traced i =
    let spec = spec_of shape (Measure.shuffle rng shape.faults) in
    let sink = if traced then Obs.memory () else Obs.null in
    let local, dt =
      Measure.time (fun () ->
          Obs.span sink "perfbench.campaign" (fun _ ->
              match Campaign.compile ~obs:sink spec with
              | Ok compiled -> Campaign.run_local compiled
              | Error e -> failwith ("campaign compile: " ^ e)))
    in
    let ((_, _, f) as tally) = Campaign.tally local.result in
    attempted := !attempted + local.result.total;
    failed := !failed + f;
    if tally <> shape.expect then begin
      let d, u, f = tally and ed, eu, ef = shape.expect in
      errors :=
        Printf.sprintf "op %d tallied %d/%d/%d detected/undetected/failed, want %d/%d/%d"
          i d u f ed eu ef
        :: !errors
    end;
    let csv = sorted_csv local.result in
    (match !first_csv with
    | None -> first_csv := Some csv
    | Some c when String.equal c csv -> ()
    | Some _ -> errors := Printf.sprintf "op %d: detection CSV differs from op 0" i :: !errors);
    if ctx.trace then begin
      per_op := layers_of local (if traced then Some (Obs.drain sink) else None) :: !per_op;
      fault_s :=
        List.rev_append
          (List.map (fun (r : Outcome.fault_result) -> r.cpu_seconds) local.result.results)
          !fault_s
    end;
    dt
  in
  let plain, traced =
    Measure.ops ~between:(Measure.resetup setups setup) ctx op
  in
  let pct, tail = Measure.tail !fault_s in
  {
    Measure.attempted = !attempted;
    failed = !failed;
    errors = List.rev !errors;
    setup_s = Measure.median !setups;
    plain;
    traced;
    peak_rss_mb = Measure.peak_rss_mb "self";
    figures = [ ("campaign_s", "s", Measure.median plain) ];
    layers =
      (if not ctx.trace then []
       else
         Measure.medians (List.rev !per_op)
         @ [
             ("anafault.fault_s_p50", Measure.median !fault_s);
             ("anafault.fault_s_tail", tail);
             ("anafault.fault_s_tail_pct", float_of_int pct);
             ("anafault.fault_samples", float_of_int (List.length !fault_s));
           ]);
  }

let layers =
  [
    ("sim.newton_iterations", "count");
    ("sim.rejected_steps", "count");
    ("sim.iters_per_step", "iter/step");
    ("sim.us_per_iteration", "us");
    ("solver.factor_solves", "count");
    ("solver.lu_s", "s");
    ("anafault.fault_s_p50", "s");
    ("anafault.fault_s_tail", "s");
    ("anafault.fault_s_tail_pct", "%");
    ("anafault.fault_samples", "count");
    ("anafault.steps_share", "ratio");
    ("anafault.unattributed_s", "s");
    ("anafault.detected", "count");
    ("anafault.undetected", "count");
    ("anafault.failed", "count");
    ("anafault.retried", "count");
  ]
