(* The staged pipeline's contract: byte-identical to the serial
   [Extractor.extract |> Lift.run] whatever the tile size, domain count
   or cache state - and after a one-tile edit, a cached re-run
   recomputes only the dirty tile. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let temp_dir () =
  let dir = Filename.temp_file "liftpipe" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

(* The serial reference: ranked fault-list text straight through the
   monolithic path. *)
let serial_text ?(options = Defects.Lift.default_options) mask =
  let ext = Extract.Extractor.extract mask in
  let result = Defects.Lift.run ~options ext in
  Faults.Fault_list.to_string (Defects.Lift.ranked result)

let pipeline_run ?(tile = Synth.Layout_synth.cell_pitch_nm) ?(domains = 1)
    ?cache ?(options = Defects.Lift.default_options) mask =
  let config =
    { Defects.Pipeline.tile_nm = tile; domains; cache_dir = cache;
      obs = Obs.null; options }
  in
  Defects.Pipeline.run ~config mask

let pipeline_text ?tile ?domains ?cache ?options mask =
  let { Defects.Pipeline.result; _ } =
    pipeline_run ?tile ?domains ?cache ?options mask
  in
  Faults.Fault_list.to_string (Defects.Lift.ranked result)

let tiling_tests =
  let open Geom in
  [
    Alcotest.test_case "count and clipped high row" `Quick (fun () ->
        let t = Tiling.create ~tile_nm:10 (Rect.make 0 0 25 15) in
        check_int "count" (3 * 2) (Tiling.count t);
        (* High row/column cells are clipped to the box. *)
        check_bool "clipped" true
          (Rect.equal (Tiling.rect t (Tiling.count t - 1)) (Rect.make 20 10 25 15)));
    Alcotest.test_case "tile_nm <= 0 is one tile" `Quick (fun () ->
        let box = Rect.make (-5) (-5) 100 40 in
        let t = Tiling.create ~tile_nm:0 box in
        check_int "count" 1 (Tiling.count t);
        check_bool "cell is box" true (Rect.equal (Tiling.rect t 0) box));
    Alcotest.test_case "owner partitions the box" `Quick (fun () ->
        let t = Tiling.create ~tile_nm:7 (Rect.make 0 0 20 20) in
        (* Every point owned by exactly one tile, and that tile's cell
           contains the point (half-open, so strictly inside works). *)
        for x = 0 to 19 do
          for y = 0 to 19 do
            let i = Tiling.owner t ~x ~y in
            let r = Tiling.rect t i in
            check_bool "inside" true
              Geom.Rect.(x >= r.x0 && x < r.x1 && y >= r.y0 && y < r.y1)
          done
        done;
        (* Points outside clamp to border tiles - owner stays total. *)
        check_int "clamp low" (Tiling.owner t ~x:0 ~y:0)
          (Tiling.owner t ~x:(-100) ~y:(-100)));
    Alcotest.test_case "covering lists exactly the watching windows" `Quick
      (fun () ->
        let t = Tiling.create ~tile_nm:10 (Rect.make 0 0 30 30) in
        let margin = 3 in
        let r = Rect.make 11 11 12 12 in
        let cov = Tiling.covering t ~margin r in
        List.iter
          (fun i ->
            check_bool "touches window" true
              (Rect.touches (Tiling.window t ~margin i) r))
          cov;
        (* Near a cell corner, all four neighbouring windows reach it. *)
        check_int "corner watchers" 4 (List.length cov);
        (* A shape deeper than margin inside one cell is seen by that
           cell alone. *)
        let deep = Rect.make 14 14 16 16 in
        check_bool "single watcher" true
          (Tiling.covering t ~margin deep = [ Tiling.owner t ~x:14 ~y:14 ]));
  ]

let pool_tests =
  [
    Alcotest.test_case "map is Array.init whatever the width" `Quick (fun () ->
        let f i = (i * 7) mod 13 in
        let expect = Array.init 100 f in
        List.iter
          (fun domains ->
            check_bool "same" true (Defects.Pool.map ~domains f 100 = expect))
          [ 1; 2; 4 ]);
    Alcotest.test_case "map n=0" `Quick (fun () ->
        check_int "empty" 0 (Array.length (Defects.Pool.map ~domains:4 Fun.id 0)));
    Alcotest.test_case "exceptions re-raised after join" `Quick (fun () ->
        check_bool "raises" true
          (try
             ignore
               (Defects.Pool.map ~domains:2
                  (fun i -> if i = 17 then failwith "boom" else i)
                  64);
             false
           with Failure msg -> msg = "boom"));
  ]

let parity_tests =
  [
    Alcotest.test_case "vco array: tiled+parallel equals serial" `Quick
      (fun () ->
        let mask = Synth.Layout_synth.vco_array ~rows:2 ~cols:3 () in
        let reference = serial_text mask in
        check_str "tile=pitch" reference (pipeline_text mask);
        check_str "domains=2" reference (pipeline_text ~domains:2 mask);
        (* An unaligned tile size must not change a byte either. *)
        check_str "tile=27um" reference (pipeline_text ~tile:27_000 mask);
        check_str "one tile" reference (pipeline_text ~tile:0 mask));
    Alcotest.test_case "mesh: tiled equals serial" `Quick (fun () ->
        let mask = Synth.Layout_synth.mesh ~rows:6 ~cols:6 () in
        let reference = serial_text mask in
        check_str "tiled" reference (pipeline_text ~tile:25_000 ~domains:2 mask));
    Alcotest.test_case "options thread through" `Quick (fun () ->
        let mask = Synth.Layout_synth.vco_array ~rows:1 ~cols:2 () in
        let tech = Layout.Tech.default in
        let options =
          {
            Defects.Lift.pdf =
              Some
                (Geom.Critical_area.Uniform
                   {
                     x_min = float_of_int tech.Layout.Tech.defect_x_min;
                     x_max = float_of_int tech.Layout.Tech.defect_x_max;
                   });
            p_min = 1e-9;
            merge_equivalent = false;
          }
        in
        check_str "uniform pdf" (serial_text ~options mask)
          (pipeline_text ~options mask));
    (* Large enough that the whole-layout stages (channel finding,
       diffusion splitting, label lookup, the equivalent-fault merge)
       dominate, so they meet the per-tile ones at a realistic scale. *)
    Alcotest.test_case "12x12 vco array: tiled and untiled equal serial" `Quick
      (fun () ->
        let mask = Synth.Layout_synth.vco_array ~rows:12 ~cols:12 () in
        let reference = serial_text mask in
        check_str "tile=pitch" reference (pipeline_text mask);
        check_str "one tile" reference (pipeline_text ~tile:0 mask));
  ]

let all_cached c =
  let open Defects.Pipeline in
  c.connectivity.computed = 0 && c.sites.computed = 0
  && c.critical_area.computed = 0
  && c.connectivity.cached = c.tiles
  && c.sites.cached = c.tiles
  && c.critical_area.cached = c.tiles

let cache_tests =
  [
    Alcotest.test_case "second run is a 100% cache hit" `Quick (fun () ->
        let mask = Synth.Layout_synth.vco_array ~rows:2 ~cols:2 () in
        let cache = Some (temp_dir ()) in
        let cold = pipeline_run ?cache mask in
        let open Defects.Pipeline in
        check_int "cold computes all" cold.counters.tiles
          cold.counters.connectivity.computed;
        check_int "cold hits none" 0 cold.counters.connectivity.cached;
        let warm = pipeline_run ?cache mask in
        check_bool "warm all cached" true (all_cached warm.counters);
        check_str "same bytes"
          (Faults.Fault_list.to_string (Defects.Lift.ranked cold.result))
          (Faults.Fault_list.to_string (Defects.Lift.ranked warm.result)));
    Alcotest.test_case "one-tile edit recomputes only the dirty tile" `Quick
      (fun () ->
        let cache = Some (temp_dir ()) in
        let base = Synth.Layout_synth.vco_array ~rows:2 ~cols:2 () in
        ignore (pipeline_run ?cache base);
        let edited = Synth.Layout_synth.vco_array ~rows:2 ~cols:2 ~nudge:(1, 1) () in
        let incr = pipeline_run ?cache edited in
        let open Defects.Pipeline in
        let c = incr.counters in
        (* The nudged strap lives deeper than the margin inside cell
           (1,1): every stage recomputes that tile and no other.  (The
           grid anchors on the layout hull, so the tile count exceeds
           the 2x2 cell count - the dirty-tile count must not.) *)
        check_int "conn computed" 1 c.connectivity.computed;
        check_int "conn cached" (c.tiles - 1) c.connectivity.cached;
        check_int "sites computed" 1 c.sites.computed;
        check_int "sites cached" (c.tiles - 1) c.sites.cached;
        check_int "ca computed" 1 c.critical_area.computed;
        check_int "ca cached" (c.tiles - 1) c.critical_area.cached;
        (* And the incremental answer matches a cold serial run of the
           edited layout, byte for byte. *)
        check_str "parity" (serial_text edited)
          (Faults.Fault_list.to_string (Defects.Lift.ranked incr.result)));
    Alcotest.test_case "corrupt artefact is a miss, not an error" `Quick
      (fun () ->
        let dir = temp_dir () in
        let mask = Synth.Layout_synth.vco_array ~rows:1 ~cols:2 () in
        ignore (pipeline_run ~cache:dir mask);
        (* Truncate every stored artefact; the pipeline must fall back
           to recomputing and still produce the right bytes. *)
        let rec clobber d =
          Array.iter
            (fun name ->
              let path = Filename.concat d name in
              if Sys.is_directory path then clobber path
              else begin
                let oc = open_out path in
                output_string oc "torn";
                close_out oc
              end)
            (Sys.readdir d)
        in
        clobber dir;
        let redo = pipeline_run ~cache:dir mask in
        check_int "recomputed" 0 redo.Defects.Pipeline.counters.Defects.Pipeline.connectivity.Defects.Pipeline.cached;
        check_str "parity" (serial_text mask)
          (Faults.Fault_list.to_string
             (Defects.Lift.ranked redo.Defects.Pipeline.result)));
  ]

let ranked_tests =
  [
    Alcotest.test_case "ranked is a total order" `Quick (fun () ->
        let mask = Synth.Layout_synth.vco_array ~rows:2 ~cols:2 () in
        let ext = Extract.Extractor.extract mask in
        let result = Defects.Lift.run ext in
        let ranked = Defects.Lift.ranked result in
        check_int "same population" (List.length result.Defects.Lift.faults)
          (List.length ranked);
        (* Probability descending... *)
        let rec desc = function
          | a :: (b :: _ as rest) ->
            Faults.Fault.(a.prob >= b.prob) && desc rest
          | _ -> true
        in
        check_bool "prob desc" true (desc ranked);
        (* ...and reversing the input changes nothing: ties are broken
           by fault class and site id, never by input order. *)
        let rev =
          Defects.Lift.ranked
            { result with Defects.Lift.faults = List.rev result.Defects.Lift.faults }
        in
        check_bool "input-order free" true (ranked = rev));
  ]

let suites =
  [
    ("pipeline.tiling", tiling_tests);
    ("pipeline.pool", pool_tests);
    ("pipeline.parity", parity_tests);
    ("pipeline.cache", cache_tests);
    ("pipeline.ranked", ranked_tests);
  ]
