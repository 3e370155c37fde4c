(** Order statistics shared by the benchmark and the comparator. *)

let sorted (a : float array) : float array =
  let a = Array.copy a in
  Array.sort compare a;
  a

(** Linear-interpolated quantile of [a] at [q] in [0, 1]. *)
let quantile (a : float array) (q : float) : float =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let x = q *. float_of_int (n - 1) in
    let i = truncate x in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((x -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

(** Samples strictly above the [q]-quantile: a percentile is reported
    only when at least ten samples lie beyond it. *)
let beyond (a : float array) (q : float) : int =
  let p = quantile a q in
  Array.fold_left (fun n x -> if x > p then n + 1 else n) 0 a

(** First and third quartile by the "exclusive" method (that of
    Python's [statistics.quantiles(values, n=4)]). *)
let quartiles (a : float array) : float * float =
  let s = sorted a in
  let n = Array.length s in
  if n < 2 then (s.(0), s.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      s.(j - 1) +. ((s.(j) -. s.(j - 1)) *. float_of_int delta /. 4.)
    in
    (q 1, q 3)

(** Interquartile range as a share of the median. *)
let iqr_frac (a : float array) : float =
  let q1, q3 = quartiles a in
  (q3 -. q1) /. median a

(** (max − min) / median. *)
let range_frac (a : float array) : float =
  let s = sorted a in
  (s.(Array.length s - 1) -. s.(0)) /. median a
