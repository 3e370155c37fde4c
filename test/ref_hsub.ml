(** Reference hereditary substitution: the test oracle for [Belr_lf.Hsub].

    The textbook definition (§3, §3.1.3), written as directly as possible:
    no memo tables, no max-free-index skip, no identity short-cuts beyond
    what the definition itself needs, and no delayed closures.  Nodes are
    still built through the [mk_*] smart constructors (the node types are
    private), but nothing here reads a node id or metadata, so the result
    depends only on the structure of its inputs.  [Hsub] and [Whnf] are
    property-tested against it. *)

open Belr_syntax
open Lf

type hres = H of head | N of normal | T of tuple

let rec lookup (s : sub) (i : int) : hres =
  match s with
  | Empty -> failwith "Ref_hsub: variable under the empty substitution"
  | Shift n -> H (mk_bvar (i + n))
  | Dot (f, s') -> (
      if i > 1 then lookup s' (i - 1)
      else
        match f with
        | Obj m -> N m
        | Tup t -> T t
        | Undef -> failwith "Ref_hsub: undefined substitution entry")

let rec sub_head (s : sub) (h : head) : hres =
  match h with
  | Const _ -> H h
  | BVar i -> lookup s i
  | PVar (p, t) -> H (mk_pvar p (comp t s))
  | MVar (u, t) -> H (mk_mvar u (comp t s))
  | Proj (b, k) -> (
      match sub_head s b with
      | H b' | N (Root (b', [])) -> H (mk_proj b' k)
      | T t -> N (List.nth t (k - 1))
      | N _ -> failwith "Ref_hsub: projection out of a non-variable term")

and sub_normal (s : sub) (m : normal) : normal =
  match m with
  | Lam (x, n) -> mk_lam x (sub_normal (dot1 s) n)
  | Root (h, sp) -> (
      let sp' = List.map (sub_normal s) sp in
      match sub_head s h with
      | H h' -> mk_root h' sp'
      | N n -> reduce n sp'
      | T _ -> failwith "Ref_hsub: block variable used as a term")

and sub_front s = function
  | Obj m -> Obj (sub_normal s m)
  | Tup t -> Tup (List.map (sub_normal s) t)
  | Undef -> Undef

(** [comp s1 s2] applies [s1] first, then [s2]. *)
and comp (s1 : sub) (s2 : sub) : sub =
  match (s1, s2) with
  | Empty, _ -> s1
  | Shift 0, _ -> s2
  | Shift n, Shift k -> mk_shift (n + k)
  | Shift n, Dot (_, s2') -> comp (mk_shift (n - 1)) s2'
  | Shift _, Empty -> s2
  | Dot (f, s1'), _ -> mk_dot (sub_front s2 f) (comp s1' s2)

and dot1 (s : sub) : sub = mk_dot (Obj (bvar 1)) (comp s (mk_shift 1))

and reduce (m : normal) (sp : spine) : normal =
  match (m, sp) with
  | _, [] -> m
  | Lam (_, body), n :: rest ->
      reduce (sub_normal (mk_dot (Obj n) (mk_shift 0)) body) rest
  | Root _, _ -> app_spine m sp

let rec sub_typ (s : sub) (a : typ) : typ =
  match a with
  | Atom (p, sp) -> mk_atom p (List.map (sub_normal s) sp)
  | Pi (x, a1, b) -> mk_pi x (sub_typ s a1) (sub_typ (dot1 s) b)

let rec sub_srt (s : sub) (q : srt) : srt =
  match q with
  | SAtom (c, sp) -> mk_satom c (List.map (sub_normal s) sp)
  | SEmbed (a, sp) -> mk_sembed a (List.map (sub_normal s) sp)
  | SPi (x, q1, q2) -> mk_spi x (sub_srt s q1) (sub_srt (dot1 s) q2)
