(** By-name lookup in a checked signature, for code that drives a source
    development from OCaml (tests, bench, examples).  Each function
    raises [Failure] when the name is not declared or names a different
    kind of declaration. *)

open Belr_lf

let find what pick (sg : Sign.t) name =
  match Option.bind (Sign.lookup_name sg name) pick with
  | Some x -> x
  | None -> failwith (Printf.sprintf "no %s named %s" what name)

let find_const =
  find "constant" (function Sign.Sym_const c -> Some c | _ -> None)

let find_typ = find "type family" (function Sign.Sym_typ a -> Some a | _ -> None)

let find_srt = find "sort family" (function Sign.Sym_srt s -> Some s | _ -> None)

let find_rec = find "function" (function Sign.Sym_rec r -> Some r | _ -> None)
