(* Staged-pipeline scaling: tiles vs wall time, serial vs pipeline.

   Over growing Layout_synth.vco_array workloads (4 MOS devices per
   cell), measure the monolithic [Extractor.extract |> Lift.run] against
   the staged pipeline in four states:

     cold  - tiled, empty artefact cache (pays tiling + digest + store);
     warm  - same cache, nothing changed (every tile of every stage hit);
     incr  - one cell's strap nudged 500 nm (exactly one dirty tile per
             stage recomputes);
     2 dom - cold again with two worker domains.

   Every pipeline run is checked byte-identical to the serial ranked
   list before its time is reported.  Each row also goes out as one
   machine-readable `lift-scaling {...}` JSON line.

   Honesty note: only the per-tile stages run on two domains; the
   global ones stay serial, and on a machine with fewer than two cores
   the 2-domain column measures scheduling overhead, not speedup.  The
   cold/warm/incr columns are the point here. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let temp_dir () =
  let dir = Filename.temp_file "exp_lift" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let ranked_text result =
  Faults.Fault_list.to_string (Defects.Lift.ranked result)

let pipeline ~tile ~domains ~cache mask =
  let config =
    {
      Defects.Pipeline.tile_nm = tile;
      domains;
      cache_dir = cache;
      obs = Obs.null;
      options = Defects.Lift.default_options;
    }
  in
  Defects.Pipeline.run ~config mask

let computed (c : Defects.Pipeline.counters) =
  c.connectivity.computed + c.sites.computed + c.critical_area.computed

let row ~rows ~cols =
  let base = Synth.Layout_synth.vco_array ~rows ~cols () in
  let edited =
    Synth.Layout_synth.vco_array ~rows ~cols ~nudge:(rows / 2, cols / 2) ()
  in
  let tile = Synth.Layout_synth.cell_pitch_nm in
  let serial_ranked, serial_s =
    time (fun () ->
        ranked_text
          (Defects.Lift.run ~options:Defects.Lift.default_options
             (Extract.Extractor.extract base)))
  in
  let serial_edited =
    ranked_text
      (Defects.Lift.run ~options:Defects.Lift.default_options
         (Extract.Extractor.extract edited))
  in
  let cache = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf cache) @@ fun () ->
  let check what expect (run : Defects.Pipeline.t) =
    let got = ranked_text run.result in
    if not (String.equal got expect) then begin
      Printf.printf "MISMATCH: %s diverged from serial on %dx%d\n" what rows
        cols;
      exit 1
    end;
    run
  in
  let cold, cold_s =
    time (fun () ->
        check "cold" serial_ranked
          (pipeline ~tile ~domains:1 ~cache:(Some cache) base))
  in
  let _warm, warm_s =
    time (fun () ->
        check "warm" serial_ranked
          (pipeline ~tile ~domains:1 ~cache:(Some cache) base))
  in
  let incr, incr_s =
    time (fun () ->
        check "incr" serial_edited
          (pipeline ~tile ~domains:1 ~cache:(Some cache) edited))
  in
  let _two, two_s =
    time (fun () ->
        check "2dom" serial_ranked
          (pipeline ~tile ~domains:2 ~cache:None base))
  in
  let tiles = cold.counters.tiles in
  Printf.printf "%3dx%-3d %7d %6d %8.3f %8.3f %8.3f %8.3f %8.3f   %d/%d\n"
    rows cols (4 * rows * cols) tiles serial_s cold_s warm_s incr_s two_s
    (computed incr.counters) (3 * tiles);
  let j =
    Obs.Json.Obj
      [
        ("rows", Obs.Json.Int rows);
        ("cols", Obs.Json.Int cols);
        ("devices", Obs.Json.Int (4 * rows * cols));
        ("tiles", Obs.Json.Int tiles);
        ("serial_s", Obs.Json.Float serial_s);
        ("cold_s", Obs.Json.Float cold_s);
        ("warm_s", Obs.Json.Float warm_s);
        ("incr_s", Obs.Json.Float incr_s);
        ("two_domains_s", Obs.Json.Float two_s);
        ("incr_counters", Defects.Pipeline.counters_to_json incr.counters);
      ]
  in
  Printf.printf "lift-scaling %s\n" (Obs.Json.to_string j)

let run () =
  Helpers.banner "Staged LIFT pipeline - tiles vs wall time";
  Printf.printf
    "delay-cell arrays, tile = cell pitch (%d nm); every pipeline run\n\
     verified byte-identical to the serial ranked list first.\n\
     (%d core(s) visible; the 2-domain column parallelises the per-tile\n\
     stages only)\n\n"
    Synth.Layout_synth.cell_pitch_nm (Domain.recommended_domain_count ());
  Printf.printf "%7s %7s %6s %8s %8s %8s %8s %8s   %s\n" "grid" "devices"
    "tiles" "serial" "cold" "warm" "incr" "2 dom" "recomputed";
  List.iter
    (fun (rows, cols) -> row ~rows ~cols)
    [ (4, 4); (8, 8); (12, 12) ]
