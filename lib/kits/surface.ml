(** The paper's §2 development in surface syntax.

    This is the refinement solution of the ORBI completeness benchmark,
    pushed through the full pipeline (parse → elaborate → sort-check →
    erase → re-check).  It is the one copy of the development: the tests,
    bench E1/E10 and the examples look its constants up by name
    ({!Lookup}), and [examples/equal.bel] is emitted from it.

    The front end is explicit (see [Belr_parser.Elab]): branch pattern
    variables carry [{X : …}] declarations and constructors are fully
    applied.  Note how close the LF(R) part is to the paper's listings —
    the implicit arguments of constructor declarations are reconstructed. *)

let signature_src =
  {bel|
% --- Untyped λ-calculus via HOAS (paper §2) ------------------------
LF tm : type =
| lam : (tm -> tm) -> tm
| app : tm -> tm -> tm;

% Declarative equality: congruence rules + equivalence axioms
LF deq : tm -> tm -> type =
| e-lam : ({x : tm} deq x x -> deq (M x) (N x)) -> deq (lam M) (lam N)
| e-app : deq M1 N1 -> deq M2 N2 -> deq (app M1 M2) (app N1 N2)
| e-refl : {M : tm} deq M M
| e-sym : deq M N -> deq N M
| e-trans : deq M1 M2 -> deq M2 M3 -> deq M1 M3;

% Algorithmic equality: a refinement reusing the congruence rules
LFR aeq <| deq : tm -> tm -> sort =
| e-lam : ({x : tm} aeq x x -> aeq (M x) (N x)) -> aeq (lam M) (lam N)
| e-app : aeq M1 N1 -> aeq M2 N2 -> aeq (app M1 M2) (app N1 N2);

schema xdG = | xeW : block (x : tm, u : deq x x);
schema xaG <| xdG = | xeW : block (x : tm, u : aeq x x);

% Regular worlds (checked by `belr worlds`): every context extension in
% the development is an instance of this block.  One block covers both
% schemas — worlds subsumption is up to refinement subsorting, so the
% aeq field of xaG's element erases to the same deq skeleton.
%block xbW = block (x : tm, u : deq x x);
%worlds (xbW) tm deq;

% Modes (checked by `belr modes`): algorithmic equality is a decision
% procedure — both terms are inputs.  Only the sort-level clauses are
% moded; declarative deq (e-sym, e-trans) is genuinely un-moded.
%mode aeq +M +N;
|bel}

let aeq_refl_src =
  {bel|
rec aeq-refl : (Psi : xaG) (M : [Psi |- tm]) [Psi |- aeq M M] =
mlam Psi => mlam M =>
case [Psi |- M] of
| {#b : #[Psi |- xeW]}
  [Psi |- #b.1] => [Psi |- #b.2]
| {M' : [Psi, x : tm |- tm]}
  [Psi |- lam (\x. M')] =>
    let [E] = aeq-refl [Psi, b : xeW] [Psi, b : xeW |- M'[.., b.1]] in
    [Psi |- e-lam (\x. M') (\x. M') (\x. \u. E[.., <x ; u>])]
| {M1 : [Psi |- tm]} {M2 : [Psi |- tm]}
  [Psi |- app M1 M2] =>
    let [E1] = aeq-refl [Psi] [Psi |- M1] in
    let [E2] = aeq-refl [Psi] [Psi |- M2] in
    [Psi |- e-app M1 M1 M2 M2 E1 E2];
|bel}

let aeq_sym_src =
  {bel|
rec aeq-sym : (Psi : xaG) (M : [Psi |- tm]) (N : [Psi |- tm])
              [Psi |- aeq M N] -> [Psi |- aeq N M] =
mlam Psi => mlam M => mlam N => fn d =>
case d of
| {#b : #[Psi |- xeW]}
  [Psi |- #b.2] => [Psi |- #b.2]
| {M' : [Psi, x : tm |- tm]} {N' : [Psi, x : tm |- tm]}
  {D : [Psi, x : tm, u : aeq x x |- aeq M' N']}
  [Psi |- e-lam (\x. M') (\x. N') (\x. \u. D)] =>
    let [E] = aeq-sym [Psi, b : xeW]
                [Psi, b : xeW |- M'[.., b.1]] [Psi, b : xeW |- N'[.., b.1]]
                [Psi, b : xeW |- D[.., b.1, b.2]] in
    [Psi |- e-lam (\x. N') (\x. M') (\x. \u. E[.., <x ; u>])]
| {M1 : [Psi |- tm]} {N1 : [Psi |- tm]} {M2 : [Psi |- tm]} {N2 : [Psi |- tm]}
  {D1 : [Psi |- aeq M1 N1]} {D2 : [Psi |- aeq M2 N2]}
  [Psi |- e-app M1 N1 M2 N2 D1 D2] =>
    let [E1] = aeq-sym [Psi] [Psi |- M1] [Psi |- N1] [Psi |- D1] in
    let [E2] = aeq-sym [Psi] [Psi |- M2] [Psi |- N2] [Psi |- D2] in
    [Psi |- e-app N1 M1 N2 M2 E1 E2];
|bel}

let aeq_trans_src =
  {bel|
rec aeq-trans : (Psi : xaG)
                (M1 : [Psi |- tm]) (M2 : [Psi |- tm]) (M3 : [Psi |- tm])
                [Psi |- aeq M1 M2] -> [Psi |- aeq M2 M3] -> [Psi |- aeq M1 M3] =
mlam Psi => mlam M1 => mlam M2 => mlam M3 => fn d1 => fn d2 =>
case d1 of
| {#b : #[Psi |- xeW]}
  [Psi |- #b.2] => d2
| {M' : [Psi, x : tm |- tm]} {N' : [Psi, x : tm |- tm]}
  {D : [Psi, x : tm, u : aeq x x |- aeq M' N']}
  [Psi |- e-lam (\x. M') (\x. N') (\x. \u. D)] =>
    (case d2 of
     | {N2 : [Psi, x : tm |- tm]} {P' : [Psi, x : tm |- tm]}
       {D' : [Psi, x : tm, u : aeq x x |- aeq N2 P']}
       [Psi |- e-lam (\x. N2) (\x. P') (\x. \u. D')] =>
         let [E] = aeq-trans [Psi, b : xeW]
                     [Psi, b : xeW |- M'[.., b.1]]
                     [Psi, b : xeW |- N'[.., b.1]]
                     [Psi, b : xeW |- P'[.., b.1]]
                     [Psi, b : xeW |- D[.., b.1, b.2]]
                     [Psi, b : xeW |- D'[.., b.1, b.2]] in
         [Psi |- e-lam (\x. M') (\x. P') (\x. \u. E[.., <x ; u>])])
| {M1' : [Psi |- tm]} {N1' : [Psi |- tm]} {M2' : [Psi |- tm]} {N2' : [Psi |- tm]}
  {D1 : [Psi |- aeq M1' N1']} {D2 : [Psi |- aeq M2' N2']}
  [Psi |- e-app M1' N1' M2' N2' D1 D2] =>
    (case d2 of
     | {N1'' : [Psi |- tm]} {P1' : [Psi |- tm]} {N2'' : [Psi |- tm]} {P2' : [Psi |- tm]}
       {F1 : [Psi |- aeq N1'' P1']} {F2 : [Psi |- aeq N2'' P2']}
       [Psi |- e-app N1'' P1' N2'' P2' F1 F2] =>
         let [G1] = aeq-trans [Psi] [Psi |- M1'] [Psi |- N1'] [Psi |- P1']
                      [Psi |- D1] [Psi |- F1] in
         let [G2] = aeq-trans [Psi] [Psi |- M2'] [Psi |- N2'] [Psi |- P2']
                      [Psi |- D2] [Psi |- F2] in
         [Psi |- e-app M1' P1' M2' P2' G1 G2]);
|bel}

let ceq_src =
  {bel|
% Completeness of algorithmic equality — the paper's §2 theorem.
% Note the promoted context Psi^ in the argument sort and the variable
% case, where the same block variable reads as deq under Psi^ and as aeq
% under Psi.
rec ceq : (Psi : xaG) (M : [Psi |- tm]) (N : [Psi |- tm])
          [Psi^ |- deq M N] -> [Psi |- aeq M N] =
mlam Psi => mlam M => mlam N => fn d =>
case d of
| {#b : #[Psi |- xeW]}
  [Psi^ |- #b.2] => [Psi |- #b.2]
| {M' : [Psi, x : tm |- tm]} {N' : [Psi, x : tm |- tm]}
  {D : [Psi^, x : tm, u : deq x x |- deq M' N']}
  [Psi^ |- e-lam (\x. M') (\x. N') (\x. \u. D)] =>
    let [E] = ceq [Psi, b : xeW]
                [Psi, b : xeW |- M'[.., b.1]] [Psi, b : xeW |- N'[.., b.1]]
                [Psi^, b : xeW |- D[.., b.1, b.2]] in
    [Psi |- e-lam (\x. M') (\x. N') (\x. \u. E[.., <x ; u>])]
| {M1 : [Psi |- tm]} {N1 : [Psi |- tm]} {M2 : [Psi |- tm]} {N2 : [Psi |- tm]}
  {D1 : [Psi^ |- deq M1 N1]} {D2 : [Psi^ |- deq M2 N2]}
  [Psi^ |- e-app M1 N1 M2 N2 D1 D2] =>
    let [E1] = ceq [Psi] [Psi |- M1] [Psi |- N1] [Psi^ |- D1] in
    let [E2] = ceq [Psi] [Psi |- M2] [Psi |- N2] [Psi^ |- D2] in
    [Psi |- e-app M1 N1 M2 N2 E1 E2]
| {M0 : [Psi |- tm]}
  [Psi^ |- e-refl M0] => aeq-refl [Psi] [Psi |- M0]
| {M0 : [Psi |- tm]} {N0 : [Psi |- tm]} {D : [Psi^ |- deq M0 N0]}
  [Psi^ |- e-sym M0 N0 D] =>
    let [E] = ceq [Psi] [Psi |- M0] [Psi |- N0] [Psi^ |- D] in
    aeq-sym [Psi] [Psi |- M0] [Psi |- N0] [Psi |- E]
| {M0 : [Psi |- tm]} {M1' : [Psi |- tm]} {M2' : [Psi |- tm]}
  {D1 : [Psi^ |- deq M0 M1']} {D2 : [Psi^ |- deq M1' M2']}
  [Psi^ |- e-trans M0 M1' M2' D1 D2] =>
    let [E1] = ceq [Psi] [Psi |- M0] [Psi |- M1'] [Psi^ |- D1] in
    let [E2] = ceq [Psi] [Psi |- M1'] [Psi |- M2'] [Psi^ |- D2] in
    aeq-trans [Psi] [Psi |- M0] [Psi |- M1'] [Psi |- M2'] [Psi |- E1] [Psi |- E2];
|bel}

(** The complete program. *)
let full_src =
  signature_src ^ aeq_refl_src ^ aeq_sym_src ^ aeq_trans_src ^ ceq_src

(** Parse, elaborate, and check the complete development; returns the
    populated signature. *)
let load () : Belr_lf.Sign.t =
  Belr_parser.Process.program ~name:"equal.bel" full_src
