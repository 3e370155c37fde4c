(** Hand-built internal-syntax fixtures used across the test suites.

    Everything here is written directly in de Bruijn form, deliberately
    bypassing the elaborator, so that substrate tests do not depend on the
    front end.  The signature mirrors §2 of the paper:

    - [nat] with [z], [s] (a simple first-order family for basic tests)
    - [tm] with [lam], [app] (untyped λ-calculus via HOAS)
    - [deq] (declarative equality, 5 constructors)
    - [aeq ⊑ deq] (algorithmic equality: the refinement keeping
      [e-lam], [e-app])
    - schemas [xdG] and [xaG ⊑ xdG] *)

open Belr_syntax
open Belr_lf
open Lf

(* Shorthand *)
let v i : normal = (mk_root ((mk_bvar i)) [])

let arr a b = (mk_pi "_" a (Hsub.sub_typ (mk_shift 1) b))

let sarr s1 s2 = (mk_spi "_" s1 (Hsub.sub_srt (mk_shift 1) s2))

type t = {
  sg : Sign.t;
  nat : cid_typ;
  z : cid_const;
  s : cid_const;
  tm : cid_typ;
  lam : cid_const;
  app : cid_const;
  deq : cid_typ;
  e_lam : cid_const;
  e_app : cid_const;
  e_refl : cid_const;
  e_sym : cid_const;
  e_trans : cid_const;
  aeq : cid_srt;
  xd_elem : Ctxs.elem;  (** block (x : tm, u : deq x x) *)
  xa_selem : Ctxs.selem;  (** block (x : tm, u : aeq x x) *)
  xdg : cid_schema;
  xag : cid_sschema;
}

let make () =
  let sg = Sign.create () in
  (* nat *)
  let nat = Sign.add_typ sg ~name:"nat" ~kind:Ktype ~implicit:0 in
  let nat_t = (mk_atom nat []) in
  let z = Sign.add_const sg ~name:"z" ~typ:nat_t ~implicit:0 in
  let s = Sign.add_const sg ~name:"s" ~typ:(arr nat_t nat_t) ~implicit:0 in
  (* tm *)
  let tm = Sign.add_typ sg ~name:"tm" ~kind:Ktype ~implicit:0 in
  let tm_t = (mk_atom tm []) in
  let tm_arr = (mk_pi "x" tm_t tm_t) in
  let lam = Sign.add_const sg ~name:"lam" ~typ:(arr tm_arr tm_t) ~implicit:0 in
  let app =
    Sign.add_const sg ~name:"app" ~typ:(arr tm_t (arr tm_t tm_t)) ~implicit:0
  in
  (* deq : tm -> tm -> type *)
  let deq =
    Sign.add_typ sg ~name:"deq"
      ~kind:(Kpi ("m", tm_t, Kpi ("n", tm_t, Ktype)))
      ~implicit:0
  in
  let dq m n = (mk_atom deq ([ m; n ])) in
  (* e-lam : {M : tm -> tm}{N : tm -> tm}
       ({x:tm} deq x x -> deq (M x) (N x)) -> deq (lam M) (lam N)
     (M, N implicit in the surface syntax) *)
  let eta_fn i =
    (* η-long occurrence of a variable of type tm -> tm *)
    (mk_lam "x" ((mk_root ((mk_bvar (i + 1))) ([ v 1 ]))))
  in
  let e_lam_typ =
    (mk_pi "M" tm_arr ((mk_pi "N" tm_arr (arr
              ((mk_pi "x" tm_t (arr (dq (v 1) (v 1))
                     (* under x (and the anonymous arr binder shifts): in
                        [arr], codomain gets shifted; write directly *)
                     (dq
                        ((mk_root ((mk_bvar 3)) ([ v 1 ])))
                        ((mk_root ((mk_bvar 2)) ([ v 1 ])))))))
              (dq
                 ((mk_root ((mk_const lam)) ([ eta_fn 2 ])))
                 ((mk_root ((mk_const lam)) ([ eta_fn 1 ]))))))))
  in
  let e_lam = Sign.add_const sg ~name:"e-lam" ~typ:e_lam_typ ~implicit:2 in
  (* e-app : {M1}{N1}{M2}{N2} deq M1 N1 -> deq M2 N2
       -> deq (app M1 M2) (app N1 N2) *)
  let e_app_typ =
    (mk_pi "M1" tm_t ((mk_pi "N1" tm_t ((mk_pi "M2" tm_t ((mk_pi "N2" tm_t (arr
                      (dq (v 4) (v 3))
                      (arr
                         (dq (v 2) (v 1))
                         (dq
                            ((mk_root ((mk_const app)) ([ v 4; v 2 ])))
                            ((mk_root ((mk_const app)) ([ v 3; v 1 ])))))))))))))
  in
  let e_app = Sign.add_const sg ~name:"e-app" ~typ:e_app_typ ~implicit:4 in
  (* e-refl : {M : tm} deq M M *)
  let e_refl =
    Sign.add_const sg ~name:"e-refl"
      ~typ:((mk_pi "M" tm_t (dq (v 1) (v 1))))
      ~implicit:0
  in
  (* e-sym : {M}{N} deq M N -> deq N M *)
  let e_sym =
    Sign.add_const sg ~name:"e-sym"
      ~typ:
        ((mk_pi "M" tm_t ((mk_pi "N" tm_t (arr (dq (v 2) (v 1)) (dq (v 1) (v 2)))))))
      ~implicit:2
  in
  (* e-trans : {M1}{M2}{M3} deq M1 M2 -> deq M2 M3 -> deq M1 M3 *)
  let e_trans =
    Sign.add_const sg ~name:"e-trans"
      ~typ:
        ((mk_pi "M1" tm_t ((mk_pi "M2" tm_t ((mk_pi "M3" tm_t (arr
                       (dq (v 3) (v 2))
                       (arr (dq (v 2) (v 1)) (dq (v 3) (v 1))))))))))
      ~implicit:3
  in
  (* aeq ⊑ deq : tm -> tm -> sort, keeping e-lam and e-app *)
  let aeq =
    Sign.add_srt sg ~name:"aeq" ~refines:deq
      ~skind:
        (Kspi ("m", (mk_sembed tm []), Kspi ("n", (mk_sembed tm []), Ksort)))
      ~implicit:0
  in
  let aq m n = (mk_satom aeq ([ m; n ])) in
  let tm_s = (mk_sembed tm []) in
  let tm_sarr = (mk_spi "x" tm_s tm_s) in
  let e_lam_srt =
    (mk_spi "M" tm_sarr ((mk_spi "N" tm_sarr (sarr
              ((mk_spi "x" tm_s (sarr
                     (aq (v 1) (v 1))
                     (aq ((mk_root ((mk_bvar 3)) ([ v 1 ]))) ((mk_root ((mk_bvar 2)) ([ v 1 ])))))))
              (aq
                 ((mk_root ((mk_const lam)) ([ eta_fn 2 ])))
                 ((mk_root ((mk_const lam)) ([ eta_fn 1 ]))))))))
  in
  Sign.add_csort sg ~const:e_lam ~srt:e_lam_srt ~implicit:2;
  let e_app_srt =
    (mk_spi "M1" tm_s ((mk_spi "N1" tm_s ((mk_spi "M2" tm_s ((mk_spi "N2" tm_s (sarr
                      (aq (v 4) (v 3))
                      (sarr
                         (aq (v 2) (v 1))
                         (aq
                            ((mk_root ((mk_const app)) ([ v 4; v 2 ])))
                            ((mk_root ((mk_const app)) ([ v 3; v 1 ])))))))))))))
  in
  Sign.add_csort sg ~const:e_app ~srt:e_app_srt ~implicit:4;
  (* schemas *)
  let xd_elem =
    {
      Ctxs.e_name = "xeW";
      Ctxs.e_params = [];
      Ctxs.e_block = [ ("x", tm_t); ("u", dq (v 1) (v 1)) ];
    }
  in
  let xdg = Sign.add_schema sg ~name:"xdG" ~elems:[ xd_elem ] in
  let xa_selem =
    {
      Ctxs.f_name = "xeW";
      Ctxs.f_refines = 0;
      Ctxs.f_params = [];
      Ctxs.f_block = [ ("x", tm_s); ("u", aq (v 1) (v 1)) ];
    }
  in
  let xag = Sign.add_sschema sg ~name:"xaG" ~refines:xdg ~elems:[ xa_selem ] in
  {
    sg;
    nat;
    z;
    s;
    tm;
    lam;
    app;
    deq;
    e_lam;
    e_app;
    e_refl;
    e_sym;
    e_trans;
    aeq;
    xd_elem;
    xa_selem;
    xdg;
    xag;
  }

(* Common building blocks over the fixture *)

let zero (f : t) : normal = (mk_root ((mk_const f.z)) [])

let succ (f : t) (n : normal) : normal = (mk_root ((mk_const f.s)) ([ n ]))

let rec church_nat (f : t) (k : int) : normal =
  if k = 0 then zero f else succ f (church_nat f (k - 1))

let nat_t (f : t) = (mk_atom f.nat [])

let tm_t (f : t) = (mk_atom f.tm [])

(** The identity λ-term [lam \x. x]. *)
let id_tm (f : t) : normal = (mk_root ((mk_const f.lam)) ([ (mk_lam "x" (v 1)) ]))

(** [app m n]. *)
let app_tm (f : t) m n : normal = (mk_root ((mk_const f.app)) ([ m; n ]))

(** The paper's context [b : block (x:tm, u : deq x x)] with [n] blocks. *)
let xd_ctx (f : t) (n : int) : Ctxs.ctx =
  let rec go acc k =
    if k = 0 then acc
    else
      go (Ctxs.ctx_push acc (Ctxs.CBlock ("b", f.xd_elem, []))) (k - 1)
  in
  go Ctxs.empty_ctx n

let xa_sctx (f : t) (n : int) : Ctxs.sctx =
  let rec go acc k =
    if k = 0 then acc
    else
      go (Ctxs.sctx_push acc (Ctxs.SCBlock ("b", f.xa_selem, []))) (k - 1)
  in
  go Ctxs.empty_sctx n
