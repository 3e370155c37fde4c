(** Whole-signature facts that several analyses read: the subordination
    relation (lint, worlds, modes) and the call graph (totality,
    worlds).  One value serves one run over one signature; each fact is
    computed on first use, under its own [subord] / [callgraph]
    telemetry span, so a run of several analyzers builds each at most
    once and a single-analyzer run builds only what it reads. *)

open Belr_support

type t = { subord : Subord.t Lazy.t; callgraph : Callgraph.t Lazy.t }

let make (sg : Belr_lf.Sign.t) : t =
  {
    subord =
      lazy (Telemetry.with_span "subord" (fun () -> Subord.analyze sg));
    callgraph =
      lazy (Telemetry.with_span "callgraph" (fun () -> Callgraph.analyze sg));
  }

let subord (f : t) : Subord.t = Lazy.force f.subord
let callgraph (f : t) : Callgraph.t = Lazy.force f.callgraph
