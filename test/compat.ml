(* Per-analysis shorthands over {!Sim.Engine.run}, for test code that
   wants a waveform, a solution or a spectrum rather than an
   [Analysis.result].  Every call goes through [Engine.run], the one
   analysis entry point. *)

open Sim

let dc_operating_point ?options c =
  Engine.(Analysis.solution (run ?options c Analysis.Op))

let transient_with_stats ?options c ~tstep ~tstop ~uic =
  let result = Engine.(run ?options c (Analysis.Tran { tstep; tstop; uic })) in
  (Engine.Analysis.waveform result, Engine.Analysis.stats result)

let transient ?options c ~tstep ~tstop ~uic =
  fst (transient_with_stats ?options c ~tstep ~tstop ~uic)

let dc_sweep ?options c ~source ~values =
  Engine.(Analysis.sweep (run ?options c (Analysis.Dc_sweep { source; values })))

let ac ?options c ~source ~freqs =
  Engine.(Analysis.spectrum (run ?options c (Analysis.Ac { source; freqs })))
