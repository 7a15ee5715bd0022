(* lift_array: one op runs the staged LIFT pipeline three times on a
   synthesized delay-cell array - cold over a fresh artefact store, warm
   over the same store, and incremental after a one-cell nudge the seed
   picks.  The warm ranked list must equal the cold one, the
   incremental one must equal a cold run of the edited layout in a
   fresh store (made after the timed loop), and the stage counters must
   be exactly the expected computed/cached tile counts. *)

type size = {
  rows : int;
  tiles : int;  (** expected tile count; 3 tile stages each *)
}

let modes = [ "cold"; "warm"; "incr" ]

let stages =
  [ "skeleton"; "tiles"; "connectivity"; "assemble"; "net_digests"; "sites"; "rank" ]

let config ~store obs =
  {
    Defects.Pipeline.default_config with
    tile_nm = Synth.Layout_synth.cell_pitch_nm;
    cache_dir = Some store;
    obs;
  }

let ranked_text (t : Defects.Pipeline.t) =
  Faults.Fault_list.to_string (Defects.Lift.ranked t.result)

let computed_cached (t : Defects.Pipeline.t) =
  let c = t.counters in
  ( c.connectivity.computed + c.sites.computed + c.critical_area.computed,
    c.connectivity.cached + c.sites.cached + c.critical_area.cached )

let run (ctx : Measure.ctx) =
  let size = if ctx.smoke then { rows = 3; tiles = 12 } else { rows = 12; tiles = 156 } in
  let rows = size.rows and cols = size.rows in
  let store = Filename.concat ctx.work "store" in
  let setup () =
    let rng = Random.State.make [| ctx.seed |] in
    let cell = (Random.State.int rng rows, Random.State.int rng cols) in
    ( Synth.Layout_synth.vco_array ~rows ~cols (),
      Synth.Layout_synth.vco_array ~rows ~cols ~nudge:cell () )
  in
  let setups = ref [] in
  let base, edited = Measure.timed_setup setups setup in
  let all = 3 * size.tiles in
  let expect = [ ("cold", (all, 0)); ("warm", (0, all)); ("incr", (3, all - 3)) ] in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let attempted = ref 0 and failed = ref 0 in
  let first = ref None in
  let per_op = ref [] and times = ref [] in
  let op ~traced i =
    Measure.fresh_dir store;
    let errors_before = List.length !errors in
    let run mode mask =
      let sink = if traced then Obs.memory () else Obs.null in
      let t, dt =
        Measure.time (fun () ->
            Obs.span sink ("perfbench." ^ mode) (fun _ ->
                Defects.Pipeline.run ~config:(config ~store sink) mask))
      in
      let computed, cached = computed_cached t in
      let layers =
        [
          (Printf.sprintf "pipeline.%s.computed" mode, float_of_int computed);
          (Printf.sprintf "pipeline.%s.cached" mode, float_of_int cached);
          (Printf.sprintf "pipeline.%s_s" mode, dt);
        ]
      in
      let spans =
        if not traced then []
        else
          let ev = Obs.drain sink in
          List.map
            (fun s ->
              ( Printf.sprintf "pipeline.%s.%s_s" mode s,
                Measure.span_seconds ev ("pipeline." ^ s) ))
            stages
      in
      if (computed, cached) <> List.assoc mode expect then begin
        let ec, eh = List.assoc mode expect in
        fail "op %d %s: %d computed / %d cached tile stages, want %d / %d" i mode
          computed cached ec eh
      end;
      (t, dt, layers @ spans)
    in
    let cold, cold_s, cold_l = run "cold" base in
    let bytes = if traced then [ ("pipeline.artefact_bytes", float_of_int (Measure.du store)) ] else [] in
    let warm, warm_s, warm_l = run "warm" base in
    let edit, incr_s, incr_l = run "incr" edited in
    let cold_text = ranked_text cold and incr_text = ranked_text edit in
    if not (String.equal cold_text (ranked_text warm)) then
      fail "op %d: warm ranked list differs from cold" i;
    (match !first with
    | None -> first := Some (cold_text, incr_text)
    | Some (c, n) ->
      if not (String.equal c cold_text) then fail "op %d: cold ranked list differs from op 0" i;
      if not (String.equal n incr_text) then
        fail "op %d: incremental ranked list differs from op 0" i);
    let r = cold.result in
    let faults = List.length r.faults in
    incr attempted;
    if List.length !errors > errors_before then incr failed;
    times := (cold_s, warm_s, incr_s) :: !times;
    if ctx.trace then
      per_op :=
        (cold_l @ warm_l @ incr_l @ bytes
        @ [
            ("pipeline.tiles", float_of_int cold.counters.tiles);
            ("lift.sites_considered", float_of_int r.sites_considered);
            ("lift.faults", float_of_int faults);
            ( "lift.kept_share",
              float_of_int faults /. float_of_int (max 1 r.sites_considered) );
          ])
        :: !per_op;
    cold_s +. warm_s +. incr_s
  in
  let plain, traced =
    Measure.ops ~between:(Measure.resetup setups setup) ctx op
  in
  (* The reference for the incremental list: the edited layout extracted
     cold, in a fresh store. *)
  Measure.fresh_dir store;
  let reference = ranked_text (Defects.Pipeline.run ~config:(config ~store Obs.null) edited) in
  Measure.rm_rf store;
  (match !first with
  | Some (_, n) when not (String.equal n reference) ->
    fail "incremental ranked list differs from a cold run of the edited layout";
    failed := !attempted
  | _ -> ());
  let med f = Measure.median (List.map f !times) in
  {
    Measure.attempted = !attempted;
    failed = !failed;
    errors = List.rev !errors;
    setup_s = Measure.median !setups;
    plain;
    traced;
    peak_rss_mb = Measure.peak_rss_mb "self";
    figures =
      [
        ("cold_s", "s", med (fun (c, _, _) -> c));
        ("warm_s", "s", med (fun (_, w, _) -> w));
        ("incr_s", "s", med (fun (_, _, n) -> n));
      ];
    layers = Measure.medians (List.rev !per_op);
  }

let layers =
  List.concat_map
    (fun m ->
      ((Printf.sprintf "pipeline.%s_s" m, "s")
       :: List.map (fun s -> (Printf.sprintf "pipeline.%s.%s_s" m s, "s")) stages)
      @ [
          (Printf.sprintf "pipeline.%s.computed" m, "count");
          (Printf.sprintf "pipeline.%s.cached" m, "count");
        ])
    modes
  @ [
      ("pipeline.tiles", "count");
      ("pipeline.artefact_bytes", "bytes");
      ("lift.sites_considered", "count");
      ("lift.faults", "count");
      ("lift.kept_share", "ratio");
    ]
