(** Pretty printing of the internal syntax.

    Printing needs the signature's id→name maps, which live above this
    library; callers pass a {!resolver}.  de Bruijn indices are rendered
    using the binder name hints, freshened against everything in scope. *)

open Belr_support
open Lf

type resolver = {
  r_typ : int -> string;
  r_srt : int -> string;
  r_const : int -> string;
  r_schema : int -> string;
  r_sschema : int -> string;
  r_rec : int -> string;
}

(** Resolver printing raw ids; useful before a signature exists. *)
let raw_resolver =
  {
    r_typ = Fmt.str "a#%d";
    r_srt = Fmt.str "s#%d";
    r_const = Fmt.str "c#%d";
    r_schema = Fmt.str "G#%d";
    r_sschema = Fmt.str "H#%d";
    r_rec = Fmt.str "f#%d";
  }

type env = {
  res : resolver;
  bound : string list;  (** LF binders in scope, innermost first *)
  meta : string list;  (** meta binders in scope, innermost first *)
}

let env ?(res = raw_resolver) () = { res; bound = []; meta = [] }

let push_bound e (n : Name.t) =
  let n' = Name.fresh_for e.bound (Name.to_string n) in
  ({ e with bound = n' :: e.bound }, n')

let push_meta e (n : Name.t) =
  let n' = Name.fresh_for e.meta (Name.to_string n) in
  ({ e with meta = n' :: e.meta }, n')

let bound_name e i =
  match List.nth_opt e.bound (i - 1) with
  | Some n -> n
  | None -> Fmt.str "!%d" i

let meta_name e i =
  match List.nth_opt e.meta (i - 1) with
  | Some n -> n
  | None -> Fmt.str "?%d" i

(* ------------------------------------------------------------------ *)

let rec pp_head e ppf = function
  | Const c -> Fmt.string ppf (e.res.r_const c)
  | BVar i -> Fmt.string ppf (bound_name e i)
  | PVar (p, Shift 0) -> Fmt.pf ppf "#%s" (meta_name e p)
  | PVar (p, s) -> Fmt.pf ppf "#%s[%a]" (meta_name e p) (pp_sub e) s
  | Proj (h, k) -> Fmt.pf ppf "%a.%d" (pp_head e) h k
  | MVar (u, Shift 0) -> Fmt.string ppf (meta_name e u)
  | MVar (u, s) -> Fmt.pf ppf "%s[%a]" (meta_name e u) (pp_sub e) s

and pp_normal ?(paren = false) e ppf = function
  | Lam (x, m) ->
      let e', x' = push_bound e x in
      let body ppf () = Fmt.pf ppf "\\%s. %a" x' (pp_normal e') m in
      if paren then Fmt.parens body ppf () else body ppf ()
  | Root (h, []) -> pp_head e ppf h
  | Root (h, sp) ->
      let body ppf () =
        Fmt.pf ppf "%a@ %a" (pp_head e) h
          (Fmt.list ~sep:Fmt.sp (pp_normal ~paren:true e))
          sp
      in
      if paren then Fmt.parens body ppf () else Fmt.box (body) ppf ()

and pp_front e ppf = function
  | Obj m -> pp_normal e ppf m
  | Tup t -> Fmt.pf ppf "<%a>" (Fmt.list ~sep:Fmt.semi (pp_normal e)) t
  | Undef -> Fmt.string ppf "_|_"

and pp_sub e ppf (s : sub) =
  (* Collect Dot fronts (they are stored innermost-last textually: the
     front of the outermost Dot replaces index 1). We print in the paper's
     order: σ, M. *)
  let rec collect acc = function
    | Dot (f, s') -> collect (f :: acc) s'
    | tail -> (tail, acc)
  in
  let tail, fronts = collect [] s in
  let pp_tail ppf = function
    | Empty -> Fmt.string ppf "^"
    | Shift 0 -> Fmt.string ppf ".."
    | Shift n -> Fmt.pf ppf "..%d" n
    | Dot _ -> assert false
  in
  match fronts with
  | [] -> pp_tail ppf tail
  | _ ->
      Fmt.pf ppf "%a, %a" pp_tail tail
        (Fmt.list ~sep:Fmt.comma (pp_front e))
        fronts

let rec pp_typ ?(paren = false) e ppf = function
  | Atom (a, []) -> Fmt.string ppf (e.res.r_typ a)
  | Atom (a, sp) ->
      let body ppf () =
        Fmt.pf ppf "%s@ %a" (e.res.r_typ a)
          (Fmt.list ~sep:Fmt.sp (pp_normal ~paren:true e))
          sp
      in
      if paren then Fmt.parens body ppf () else Fmt.box body ppf ()
  | Pi (x, a, b) ->
      let e', x' = push_bound e x in
      let body ppf () =
        Fmt.pf ppf "{%s : %a}@ %a" x' (pp_typ e) a (pp_typ e') b
      in
      if paren then Fmt.parens body ppf () else Fmt.box body ppf ()

let rec pp_srt ?(paren = false) e ppf = function
  | SAtom (s, []) -> Fmt.string ppf (e.res.r_srt s)
  | SAtom (s, sp) ->
      let body ppf () =
        Fmt.pf ppf "%s@ %a" (e.res.r_srt s)
          (Fmt.list ~sep:Fmt.sp (pp_normal ~paren:true e))
          sp
      in
      if paren then Fmt.parens body ppf () else Fmt.box body ppf ()
  | SEmbed (a, sp) -> pp_typ ~paren e ppf (mk_atom a sp)
  | SPi (x, s1, s2) ->
      let e', x' = push_bound e x in
      let body ppf () =
        Fmt.pf ppf "{%s : %a}@ %a" x' (pp_srt e) s1 (pp_srt e') s2
      in
      if paren then Fmt.parens body ppf () else Fmt.box body ppf ()

(* Blocks / elements -------------------------------------------------- *)

let pp_sblock e ppf (b : Ctxs.sblock) =
  let rec go e = function
    | [] -> []
    | (x, s) :: rest ->
        let str = Fmt.str "%s : %a" (snd (push_bound e x)) (pp_srt e) s in
        let e', _ = push_bound e x in
        str :: go e' rest
  in
  Fmt.pf ppf "block (%s)" (String.concat ", " (go e b))

let pp_selem e ppf (f : Ctxs.selem) =
  let rec params env = function
    | [] -> (env, [])
    | (x, s) :: rest ->
        let str = Fmt.str "{%s : %a}" (snd (push_bound env x)) (pp_srt env) s in
        let env', _ = push_bound env x in
        let env'', ss = params env' rest in
        (env'', str :: ss)
  in
  let env', ps = params e f.Ctxs.f_params in
  if ps = [] then pp_sblock env' ppf f.Ctxs.f_block
  else
    Fmt.pf ppf "%s %a" (String.concat " " ps) (pp_sblock env') f.Ctxs.f_block

(* Contexts ----------------------------------------------------------- *)

(** Print a context left-to-right (outermost first), extending the binder
    environment as we go; returns the extended environment. *)
let pp_ctx_gen ~pp_entry ~var_name e ppf (var, decls_innermost_first) =
  let decls = List.rev decls_innermost_first in
  let started = ref false in
  let sep () =
    if !started then Fmt.pf ppf ", ";
    started := true
  in
  (match var with
  | Some i ->
      sep ();
      Fmt.string ppf (var_name i)
  | None -> ());
  let env = ref e in
  List.iter
    (fun d ->
      sep ();
      let env' = pp_entry !env ppf d in
      env := env')
    decls;
  if not !started then Fmt.string ppf ".";
  !env

let pp_scentry e ppf = function
  | Ctxs.SCDecl (x, s) ->
      let e', x' = push_bound e x in
      Fmt.pf ppf "%s : %a" x' (pp_srt e) s;
      e'
  | Ctxs.SCBlock (x, f, ms) ->
      let e', x' = push_bound e x in
      Fmt.pf ppf "%s : %a" x' (pp_selem e) f;
      (match ms with
      | [] -> ()
      | _ ->
          Fmt.pf ppf " %a" (Fmt.list ~sep:Fmt.sp (pp_normal ~paren:true e)) ms);
      e'

let pp_sctx e ppf (psi : Ctxs.sctx) =
  let var_name i =
    let n = meta_name e i in
    if psi.Ctxs.s_promoted then n ^ "^" else n
  in
  ignore
    (pp_ctx_gen ~pp_entry:pp_scentry ~var_name e ppf
       (psi.Ctxs.s_var, psi.Ctxs.s_decls))

(** Environment extended with all binders of a sort context, for printing
    objects that live in it. *)
let env_of_sctx e (psi : Ctxs.sctx) =
  List.fold_left
    (fun env n -> fst (push_bound env n))
    e
    (List.rev (Ctxs.sctx_names psi))

let env_of_ctx e (g : Ctxs.ctx) =
  List.fold_left
    (fun env n -> fst (push_bound env n))
    e
    (List.rev (Ctxs.ctx_names g))

(* Meta level ---------------------------------------------------------- *)

let pp_msrt e ppf = function
  | Meta.MSTerm (psi, q) ->
      Fmt.pf ppf "[%a |- %a]" (pp_sctx e) psi (pp_srt (env_of_sctx e psi)) q
  | Meta.MSSub (psi, psi') ->
      Fmt.pf ppf "[%a |- %a]" (pp_sctx e) psi (pp_sctx e) psi'
  | Meta.MSCtx h -> Fmt.string ppf (e.res.r_sschema h)
  | Meta.MSParam (psi, f, ms) ->
      Fmt.pf ppf "#[%a |- %a%a]" (pp_sctx e) psi (pp_selem (env_of_sctx e psi)) f
        (fun ppf -> function
          | [] -> ()
          | ms ->
              Fmt.pf ppf " %a"
                (Fmt.list ~sep:Fmt.sp (pp_normal ~paren:true (env_of_sctx e psi)))
                ms)
        ms

(* Computation level ---------------------------------------------------- *)

let rec pp_ctyp ?(paren = false) e ppf = function
  | Comp.CBox ms -> pp_msrt e ppf ms
  | Comp.CArr (t1, t2) ->
      let body ppf () =
        Fmt.pf ppf "%a ->@ %a" (pp_ctyp ~paren:true e) t1 (pp_ctyp e) t2
      in
      if paren then Fmt.parens body ppf () else Fmt.box body ppf ()
  | Comp.CPi (x, imp, ms, t) ->
      let e', x' = push_meta e x in
      let l, r = if imp then ("(", ")") else ("{", "}") in
      let body ppf () =
        Fmt.pf ppf "%s%s : %a%s@ %a" l x' (pp_msrt e) ms r (pp_ctyp e') t
      in
      if paren then Fmt.parens body ppf () else Fmt.box body ppf ()
