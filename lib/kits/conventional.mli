(** The conventional (refinement-free) mechanization of the §2
    benchmark, the baseline of experiment E1.

    The development is [examples/conventional.blr]: the joint-context
    solution of the ORBI suite, with blocks [(x:tm, u:aeq x x, v:deq x x)],
    separate [aeq] and [deq] families whose lam rules both bind the full
    triple, and a soundness theorem [sound] that a refinement gets for
    free.  {!Stats} measures it against {!Surface}. *)

val src : string
(** The source text of [examples/conventional.blr]. *)

val load : unit -> Belr_lf.Sign.t
(** Parse, elaborate, and check the development (erasures re-checked);
    returns the populated signature. *)
