(** Fuzz-style regression for the fault-tolerant pipeline: mutate the seed
    example signatures at the token level and assert the checker NEVER
    throws an uncaught exception — every failure must come back as a
    rendered diagnostic (and never as an internal violation). *)

open Belr_support
open Belr_parser

(* A tiny deterministic LCG so runs are reproducible (no global RNG). *)
let lcg_next r =
  r := ((!r * 1103515245) + 12345) land 0x3FFFFFFF;
  !r

let rand r n = if n <= 0 then 0 else lcg_next r mod n

(* Token-ish fragments of the surface language, biased toward the
   punctuation that steers the parser. *)
let fragments =
  [|
    ";"; "->"; "<|"; "|-"; ".."; "=>"; "("; ")"; "["; "]"; "{"; "}"; "\\";
    "#"; "^"; "|"; ":"; "="; ","; "."; "<"; ">"; "type"; "sort"; " LF ";
    " LFR "; " rec "; " schema "; " block "; " and "; " case "; " of ";
    " fn "; " mlam "; " let "; " in "; "tm"; "aeq"; "xeW"; "Psi"; "M"; "%";
    " %mode "; "+M"; "-V"; "*A";
  |]

let mutate_once r (src : string) : string =
  let len = String.length src in
  if len = 0 then src
  else
    match rand r 3 with
    | 0 ->
        (* delete a span *)
        let pos = rand r len in
        let dlen = min (1 + rand r 24) (len - pos) in
        String.sub src 0 pos ^ String.sub src (pos + dlen) (len - pos - dlen)
    | 1 ->
        (* insert a token fragment *)
        let pos = rand r (len + 1) in
        let frag = fragments.(rand r (Array.length fragments)) in
        String.sub src 0 pos ^ frag ^ String.sub src pos (len - pos)
    | _ ->
        (* replace one character *)
        let pos = rand r len in
        let frag = fragments.(rand r (Array.length fragments)) in
        let c = frag.[rand r (String.length frag)] in
        String.sub src 0 pos ^ String.make 1 c
        ^ String.sub src (pos + 1) (len - pos - 1)

let mutate r n src =
  let rec go n src = if n = 0 then src else go (n - 1) (mutate_once r src) in
  go n src

(** Check a mutant end to end — then lint and totality-check whatever
    signature survived — and fail on any escaped exception or any
    diagnostic that fails to render.  The analyses run over
    partially-recovered signatures here, so this also fuzzes their
    defensiveness (a crashing pass must surface as a B0002 bug diagnostic
    via {!Diagnostics.recover}, which this test then rejects). *)
let never_crashes i (src : string) : unit =
  let sink = Diagnostics.sink ~max_errors:100 () in
  match
    let sg = Driver.check_sources sink [ ("fuzz.bel", src) ] in
    ignore (Driver.run_analyses Driver.analyses sink sg)
  with
  | () ->
      let rendered = Fmt.str "%a" (fun ppf s -> Diagnostics.dump ppf s) sink in
      ignore rendered;
      if Diagnostics.bug_count sink > 0 then
        Alcotest.failf "mutant %d: internal bug diagnostic:@.%s" i rendered;
      (* every finding carries a registered code, and the exit code is
         one of the two documented values — mutants must not invent
         diagnostics or exit statuses *)
      List.iter
        (fun (d : Diagnostics.t) ->
          if
            not
              (List.exists
                 (fun c -> c.Diagnostics.cc_code = d.Diagnostics.d_code)
                 Diagnostics.registry)
          then
            Alcotest.failf "mutant %d: unregistered code %s" i
              d.Diagnostics.d_code)
        (Diagnostics.all sink);
      let ec = Diagnostics.exit_code sink in
      if ec <> 0 && ec <> 1 then
        Alcotest.failf "mutant %d: unstable exit code %d" i ec
  | exception e ->
      Alcotest.failf "mutant %d: uncaught exception %s" i
        (Printexc.to_string e)

let run_battery name seed rounds base =
  Alcotest.test_case name `Quick (fun () ->
      (* a modest depth budget keeps pathological mutants fast while still
         exercising the E0901 path; restore the default afterwards *)
      Limits.set_max_depth 2_000;
      Fun.protect
        ~finally:(fun () ->
          Limits.set_max_depth Limits.default_max_depth;
          Limits.reset ())
        (fun () ->
          let r = ref seed in
          for i = 1 to rounds do
            never_crashes i (mutate r (1 + rand r 3) base)
          done))

let tests =
  [
    run_battery "mutated LF/LFR/schema signature never crashes the checker"
      0x5EED1 60 Belr_kits.Surface.signature_src;
    run_battery "mutated full development never crashes the checker" 0x5EED2
      60 Belr_kits.Surface.full_src;
    run_battery "heavily mutated development never crashes the checker"
      0x5EED3 30
      (Belr_kits.Surface.full_src ^ Belr_kits.Surface.signature_src);
    (* the values kit ships two %mode declarations, so these mutants
       steer straight into the mode analyzer's parser and dataflow *)
    run_battery "mutated moded development never crashes the mode analyzer"
      0x5EED4 60 Belr_kits.Values.src;
  ]

let suites = [ ("fuzz", tests) ]
