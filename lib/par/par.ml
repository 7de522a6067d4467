(** Multicore job layer.

    {!Pool} spreads independent jobs — campaign cells, check-suite cases,
    chaos trials, bench repeats — over a work-stealing domain pool with
    deterministic result order; {!Campaign} is {!Runtime.Campaign} and
    {!Chaos} is {!Runtime.Chaos} on top of {!Pool}.  Each job runs the
    ordinary sequential engine, so results are identical to a one-domain
    sweep. *)

module Pool = Pool
module Campaign = Campaign_par
module Chaos = Chaos_par
