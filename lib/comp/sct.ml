(** Size-change termination (Lee, Jones, Ben-Amram, POPL '01) over the
    {!Belr_analysis.Callgraph} — the back half of the totality analyzer
    (DESIGN.md §S22).

    A {e size-change graph} for a call site [f → g] is its edge set:
    [(i, r, j)] says the [j]-th argument of the call is [r]-related
    (strictly smaller, or no larger) to [f]'s [i]-th formal.  Graphs
    compose relationally — [(G₁; G₂)] has [(i, r₁∘r₂, k)] whenever
    [G₁] has [(i, r₁, j)] and [G₂] has [(j, r₂, k)], where [∘] takes the
    strict relation if either side is strict — and the analysis closes
    the per-SCC graph set under composition.  The LJB criterion:
    every {e idempotent} self-graph [G : f → f] with [G; G = G] must
    carry a strict self-edge [(i, Lt, i)].  If one does not, some
    infinite call sequence would descend in no argument forever, and we
    report it with the composition's call path as a witness.

    Unlike a guardedness check (every recursive call passes some
    pattern-bound subterm), this tracks {e which} argument decreases and
    follows size information {e across} call sites, so it accepts
    argument-swapping mutual recursion and lexicographic descent
    (Ackermann) while rejecting the diverging cycles guardedness cannot
    even see (a [ping → pong → ping] loop that never shrinks).  The closure is bounded by a graph {e budget}; blown
    budgets yield {!GaveUp}, never a spurious acceptance. *)

open Belr_analysis

(** A call path witnessing a composed graph, outermost call first. *)
type path = Callgraph.site list

type verdict =
  | Terminating
  | Diverging of path
      (** some idempotent cycle has no strictly descending argument; the
          path is one concrete call sequence realizing it *)
  | GaveUp  (** composition closure exceeded its budget *)

(* --- graphs ----------------------------------------------------------- *)

(** Normalized edge list (sorted, strongest relation per pair) — directly
    comparable with [=]. *)
type graph = Callgraph.edge list

let compose (g1 : graph) (g2 : graph) : graph =
  let open Callgraph in
  let edges =
    List.concat_map
      (fun e1 ->
        List.filter_map
          (fun e2 ->
            if e1.e_dst = e2.e_src then
              Some
                {
                  e_src = e1.e_src;
                  e_rel = rel_compose e1.e_rel e2.e_rel;
                  e_dst = e2.e_dst;
                }
            else None)
          g2)
      g1
  in
  normalize_edges edges

let idempotent (g : graph) : bool = compose g g = g

let has_strict_self_edge (g : graph) : bool =
  List.exists
    (fun (e : Callgraph.edge) -> e.Callgraph.e_src = e.Callgraph.e_dst && e.Callgraph.e_rel = Callgraph.Lt)
    g

(* --- closure ---------------------------------------------------------- *)

type item = {
  it_src : Belr_syntax.Lf.cid_rec;
  it_dst : Belr_syntax.Lf.cid_rec;
  it_graph : graph;
  it_path : path;  (** first composition found, for the witness *)
}

(** Check one strongly connected component of the call graph.  Only call
    sites internal to the SCC participate: a call out of the component
    cannot lie on a cycle through it.  [budget] bounds the number of
    distinct (src, dst, graph) items the closure may generate (default
    4096); [composed] reports how many compositions were computed. *)
let check_scc ?(budget = 4096) (cg : Callgraph.t)
    (scc : Belr_syntax.Lf.cid_rec list) :
    verdict * [ `Composed of int ] =
  let composed = ref 0 in
  let internal (s : Callgraph.site) =
    List.mem s.Callgraph.cs_caller scc && List.mem s.Callgraph.cs_callee scc
  in
  let sites = List.filter internal cg.Callgraph.cg_sites in
  match sites with
  | [] -> (Terminating, `Composed 0)
  | _ -> (
      let seen : (Belr_syntax.Lf.cid_rec * Belr_syntax.Lf.cid_rec * graph, path)
          Hashtbl.t =
        Hashtbl.create 64
      in
      let base =
        List.map
          (fun (s : Callgraph.site) ->
            {
              it_src = s.Callgraph.cs_caller;
              it_dst = s.Callgraph.cs_callee;
              it_graph = s.Callgraph.cs_edges;
              it_path = [ s ];
            })
          sites
      in
      let all = ref [] in
      let queue = Queue.create () in
      let add (it : item) =
        let key = (it.it_src, it.it_dst, it.it_graph) in
        if not (Hashtbl.mem seen key) then (
          Hashtbl.replace seen key it.it_path;
          all := it :: !all;
          Queue.add it queue)
      in
      List.iter add base;
      let blown = ref false in
      while (not !blown) && not (Queue.is_empty queue) do
        let it = Queue.pop queue in
        (* extend on the right with every base site leaving [it_dst] *)
        List.iter
          (fun (b : item) ->
            if b.it_src = it.it_dst && not !blown then (
              incr composed;
              add
                {
                  it_src = it.it_src;
                  it_dst = b.it_dst;
                  it_graph = compose it.it_graph b.it_graph;
                  it_path = it.it_path @ b.it_path;
                };
              if Hashtbl.length seen > budget then blown := true))
          base
      done;
      if !blown then (GaveUp, `Composed !composed)
      else
        let bad =
          List.find_opt
            (fun it ->
              it.it_src = it.it_dst
              && idempotent it.it_graph
              && not (has_strict_self_edge it.it_graph))
            (List.rev !all)
        in
        match bad with
        | Some it -> (Diverging it.it_path, `Composed !composed)
        | None -> (Terminating, `Composed !composed))

(** Render a witness path as ["f → g → f"] given a name resolver. *)
let render_path (name : Belr_syntax.Lf.cid_rec -> string) (p : path) : string =
  match p with
  | [] -> ""
  | first :: _ ->
      let names =
        name first.Callgraph.cs_caller
        :: List.map (fun (s : Callgraph.site) -> name s.Callgraph.cs_callee) p
      in
      String.concat " -> " names
