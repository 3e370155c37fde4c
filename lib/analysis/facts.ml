(** What the analyses of one run read about the signature: its entries
    in id order (every pass), the subordination relation (lint, worlds,
    modes) and the call graph (totality, worlds).  One value serves one
    run over one signature; each fact is computed on first use, under its
    own [subord] / [callgraph] telemetry span, so a run of several
    analyzers computes each at most once and a single-analyzer run only
    what it reads.

    A run inside a {!Belr_lf.Session.t} also reuses the subordination
    relation of the session's previous run while the family ids and the
    generating edges are unchanged ({!Subord.build}), and keeps the one
    it ends up with for the next run. *)

open Belr_support
module Sign = Belr_lf.Sign
module Session = Belr_lf.Session

(** The signature's entries, each kind sorted by ascending id: the
    deterministic order the passes report in. *)
type view = {
  typs : (Belr_syntax.Lf.cid_typ * Sign.typ_entry) array;
  consts : (Belr_syntax.Lf.cid_const * Sign.const_entry) array;
  srts : (Belr_syntax.Lf.cid_srt * Sign.srt_entry) array;
  schemas : (Belr_syntax.Lf.cid_schema * Sign.schema_entry) array;
  sschemas : (Belr_syntax.Lf.cid_sschema * Sign.sschema_entry) array;
  recs : (Belr_syntax.Lf.cid_rec * Sign.rec_entry) array;
}

type t = {
  view : view Lazy.t;
  subord : Subord.t Lazy.t;
  callgraph : Callgraph.t Lazy.t;
}

(** The session's kept relation. *)
type Session.facts += Subordination of Subord.t

let by_id (l : (int * 'a) list) : (int * 'a) array =
  let a = Array.of_list l in
  Array.sort (fun (i, _) (j, _) -> Int.compare i j) a;
  a

let view_of (sg : Sign.t) : view =
  {
    typs = by_id (Sign.all_typs sg);
    consts = by_id (Sign.all_consts sg);
    srts = by_id (Sign.all_srts sg);
    schemas = by_id (Sign.all_schemas sg);
    sschemas = by_id (Sign.all_sschemas sg);
    recs = by_id (Sign.all_recs sg);
  }

let make ?(session : Session.t option) (sg : Sign.t) : t =
  let view = lazy (view_of sg) in
  let subord () =
    let v = Lazy.force view in
    let prev =
      match session with
      | Some { Session.sn_facts = Some (Subordination s); _ } -> Some s
      | _ -> None
    in
    let s = Subord.build ?prev sg ~typs:v.typs ~consts:v.consts in
    Option.iter
      (fun ses -> ses.Session.sn_facts <- Some (Subordination s))
      session;
    s
  in
  {
    view;
    subord = lazy (Telemetry.with_span "subord" subord);
    callgraph =
      lazy (Telemetry.with_span "callgraph" (fun () -> Callgraph.analyze sg));
  }

let view (f : t) : view = Lazy.force f.view
let subord (f : t) : Subord.t = Lazy.force f.subord
let callgraph (f : t) : Callgraph.t = Lazy.force f.callgraph

(** A family's name, or [#id] for an id the signature does not know
    (a recovered signature may mention one). *)
let family_name (sg : Sign.t) (a : Belr_syntax.Lf.cid_typ) : string =
  match Sign.typ_entry_opt sg a with
  | Some te -> te.Sign.t_name
  | None -> "#" ^ string_of_int a
