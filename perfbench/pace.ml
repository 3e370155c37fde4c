(** The pace reference: a fixed computation, independent of belr, that
    measures how fast the machine runs at the moment.

    On a shared host the same op can take 1.5–2× longer for minutes at a
    time while neighbours load the core, and the process's CPU time rises
    with its wall time.  A segment therefore interleaves short runs of
    this reference with its ops, and reports each measured time scaled
    by [calm_ms / (the reference's median time)]: the time the op would
    take at the machine's calm speed.

    The reference resembles a small LF kernel — hash-consed de Bruijn
    λ-terms, a memoized substitution, normalization of Church-numeral
    sums — so contention slows it much as it slows belr.  Its tables
    live in [Bigarray]s outside the OCaml heap and it allocates nothing,
    so it leaves the measured program's heap and GC untouched. *)

open Bigarray

let table n = Array1.create int c_layout n

let cap = 1 lsl 18

let tag = table cap and fa = table cap and fb = table cap

(* hash-consing table: (generation lsl 20) lor (node + 1) per slot, so a
   new generation empties it without clearing *)
let hsize = 1 lsl 19

let htab =
  let t = table hsize in
  Array1.fill t 0;
  t

let msize = 16384

let m_gen = table msize and m_j = table msize and m_s = table msize

let m_t = table msize and m_r = table msize

let () = Array1.fill m_gen 0

let gen = ref 0

let count = ref 0

let mk t a b =
  let h = ref (((((t * 65599) + a) * 65599) + b) land (hsize - 1)) in
  let found = ref (-1) in
  while !found < 0 do
    let e = htab.{!h} in
    if e lsr 20 <> !gen then begin
      let id = !count in
      if id >= cap then failwith "pace: node table full";
      incr count;
      tag.{id} <- t;
      fa.{id} <- a;
      fb.{id} <- b;
      htab.{!h} <- (!gen lsl 20) lor (id + 1);
      found := id
    end
    else
      let id = (e land 0xfffff) - 1 in
      if tag.{id} = t && fa.{id} = a && fb.{id} = b then found := id
      else h := (!h + 1) land (hsize - 1)
  done;
  !found

let var k = mk 0 k 0

let lam b = mk 1 b 0

let app f a = mk 2 f a

let rec shift d c t =
  match tag.{t} with
  | 0 -> if fa.{t} >= c then var (fa.{t} + d) else t
  | 1 -> lam (shift d (c + 1) fa.{t})
  | _ ->
      let f = shift d c fa.{t} in
      app f (shift d c fb.{t})

let rec subst j s t =
  let slot = ((t * 7919) + (s * 31) + j) land (msize - 1) in
  if m_gen.{slot} = !gen && m_j.{slot} = j && m_s.{slot} = s && m_t.{slot} = t then
    m_r.{slot}
  else begin
    let r =
      match tag.{t} with
      | 0 ->
          let k = fa.{t} in
          if k = j then s else if k > j then var (k - 1) else t
      | 1 -> lam (subst (j + 1) (shift 1 0 s) fa.{t})
      | _ ->
          let f = subst j s fa.{t} in
          app f (subst j s fb.{t})
    in
    m_gen.{slot} <- !gen;
    m_j.{slot} <- j;
    m_s.{slot} <- s;
    m_t.{slot} <- t;
    m_r.{slot} <- r;
    r
  end

let rec norm t =
  match tag.{t} with
  | 0 -> t
  | 1 -> lam (norm fa.{t})
  | _ ->
      let f = norm fa.{t} in
      if tag.{f} = 1 then norm (subst 0 fb.{t} fa.{f}) else app f (norm fb.{t})

let church n =
  let rec go k = if k = 0 then var 0 else app (var 1) (go (k - 1)) in
  lam (lam (go n))

(** One run of the reference: 30 Church-numeral sums normalized in a
    fresh generation of the tables. *)
let work () =
  incr gen;
  count := 0;
  let plus =
    lam (lam (lam (lam (app (app (var 3) (var 1)) (app (app (var 2) (var 1)) (var 0))))))
  in
  let acc = ref 0 in
  for i = 1 to 30 do
    acc := !acc + norm (app (app plus (church (i * 7))) (church (400 - i)))
  done;
  !acc

(** Time one run of the reference, in nanoseconds. *)
let sample () : float =
  let t0 = Belr_support.Limits.now_ns () in
  ignore (Sys.opaque_identity (work ()));
  Int64.to_float (Int64.sub (Belr_support.Limits.now_ns ()) t0)

(** The reference's median time, in ms, on an idle 2-vCPU KVM guest of a
    Xeon (Sapphire Rapids) host: the calm speed every time is scaled
    to. *)
let calm_ms = 2.6
