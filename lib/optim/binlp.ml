type rel = Le | Ge

type lin = { coeffs : (int * float) list; const : float }

type term = Lin of lin | Prod of lin * lin

type constr = { terms : term list; rel : rel; bound : float }

let linear l rel bound = { terms = [ Lin l ]; rel; bound }
let product l1 l2 rel bound = { terms = [ Prod (l1, l2) ]; rel; bound }

type problem = {
  nvars : int;
  objective : float array;
  groups : int list list;
  constraints : constr list;
}

type solution = { x : bool array; objective : float }

type status = Optimal | Node_limit_reached

type outcome = { best : solution option; status : status; nodes : int }

type runner = { workers : int; run_batch : (unit -> unit) list -> unit }

let inline_runner = { workers = 1; run_batch = List.iter (fun f -> f ()) }

let eval_lin l x =
  List.fold_left
    (fun acc (j, a) -> if x.(j) then acc +. a else acc)
    l.const l.coeffs

let eval_term x = function
  | Lin l -> eval_lin l x
  | Prod (l1, l2) -> eval_lin l1 x *. eval_lin l2 x

let eval_constr_lhs c x =
  List.fold_left (fun acc t -> acc +. eval_term x t) 0.0 c.terms

let check_constr x c =
  let lhs = eval_constr_lhs c x in
  match c.rel with Le -> lhs <= c.bound +. 1e-9 | Ge -> lhs >= c.bound -. 1e-9

let sos1_ok groups x =
  List.for_all
    (fun g -> List.length (List.filter (fun j -> x.(j)) g) <= 1)
    groups

let check p x = sos1_ok p.groups x && List.for_all (check_constr x) p.constraints

let finite what v =
  if not (Float.is_finite v) then invalid_arg ("Binlp: non-finite " ^ what)

(* Every index of [l] in range and every number finite; [where] names
   the enclosing constraint or objective term in the messages. *)
let check_lin nvars ~range_msg ~where l =
  List.iter
    (fun (j, a) ->
      if j < 0 || j >= nvars then invalid_arg range_msg;
      finite (Printf.sprintf "coefficient of x%d in %s" j where) a)
    l.coeffs;
  finite ("constant in " ^ where) l.const

let check_term nvars ~range_msg ~where = function
  | Lin l -> check_lin nvars ~range_msg ~where l
  | Prod (l1, l2) ->
      check_lin nvars ~range_msg ~where l1;
      check_lin nvars ~range_msg ~where l2

let validate p =
  let seen = Array.make p.nvars false in
  List.iter
    (fun g ->
      List.iter
        (fun j ->
          if j < 0 || j >= p.nvars then invalid_arg "Binlp: index out of range";
          if seen.(j) then invalid_arg "Binlp: overlapping groups";
          seen.(j) <- true)
        g)
    p.groups;
  if Array.length p.objective <> p.nvars then
    invalid_arg "Binlp: objective length mismatch";
  Array.iteri
    (fun j a -> finite (Printf.sprintf "objective entry of x%d" j) a)
    p.objective;
  List.iteri
    (fun k c ->
      let where = Printf.sprintf "constraint %d" k in
      List.iter
        (check_term p.nvars ~range_msg:"Binlp: constraint index out of range"
           ~where)
        c.terms;
      finite ("bound of " ^ where) c.bound)
    p.constraints;
  seen

(* The effective group list: declared groups plus a singleton group for
   every uncovered variable.  Each group's options are "none" or exactly
   one member. *)
let effective_groups p =
  let covered = validate p in
  let singles = ref [] in
  for j = p.nvars - 1 downto 0 do
    if not covered.(j) then singles := [ j ] :: !singles
  done;
  List.filter (fun g -> g <> []) p.groups @ !singles

let lin_coeff l j =
  List.fold_left (fun acc (k, a) -> if k = j then acc +. a else acc) 0.0 l.coeffs

(* Interval products on unboxed scalars, with [Stdlib.min]/[max]
   semantics ([Float.min] and [Float.max] differ on [-0.] and NaN). *)
let[@inline] fmin (a : float) b = if a <= b then a else b
let[@inline] fmax (a : float) b = if a >= b then a else b

let[@inline] interval_min_product l1 u1 l2 u2 =
  fmin (fmin (l1 *. l2) (l1 *. u2)) (fmin (u1 *. l2) (u1 *. u2))

let[@inline] interval_max_product l1 u1 l2 u2 =
  fmax (fmax (l1 *. l2) (l1 *. u2)) (fmax (u1 *. l2) (u1 *. u2))

(* The pinned tie-break: first differing index decides, an unselected
   variable beats a selected one.  Together with the canonical leaf
   objective this gives solve, brute_force and every worker count the
   same winner on equally-optimal problems. *)
let lex_lt a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then false else if a.(i) = b.(i) then go (i + 1) else not a.(i)
  in
  go 0

(* The incumbent objective is always recomputed from the assignment in
   index order — the same summation brute_force uses — so equal optima
   compare bit-exactly regardless of the float-addition order the DFS
   happened to accumulate along its path. *)
let canonical_objective objective x =
  let obj = ref 0.0 in
  Array.iteri (fun j b -> if b then obj := !obj +. objective.(j)) x;
  !obj

let better_solution a b =
  a.objective < b.objective
  || (a.objective = b.objective && lex_lt a.x b.x)

(* {2 The compiled search}

   [solve] compiles the problem once into flat arrays shared read-only
   by every frontier task, so branching, propagation and bounding walk
   no list and allocate nothing; a leaf that survives propagation runs
   the exact list-based check and objective [brute_force] uses.  Every
   linear form of a constraint or objective term is one {e factor}: a
   task tracks its partial value over the variables chosen so far, and
   interval propagation adds the least or greatest contribution the
   remaining groups can still make.  Each float operation of the
   list-based search it replaces happens in the same order on the same
   operands, so prune decisions, node counts and the winner are
   unchanged. *)

type compiled = {
  init : float array;  (* each factor's constant *)
  smin : float array array;
      (* [smin.(depth).(f)]: the least contribution the groups at
         [depth..] can still add to factor [f]; [smax] the greatest *)
  smax : float array array;
  inc_f : int array array;  (* per variable: the factors it moves... *)
  inc_c : float array array;  (* ...and by how much, as [lin_coeff] sums *)
  tf1 : int array;
  tf2 : int array;
      (* term [t]'s factors, [tf2.(t) = -1] for a linear term: the
         constraint terms, then the objective terms *)
  cstart : int array;
      (* constraint [k] owns terms [cstart.(k) .. cstart.(k+1) - 1]; the
         objective terms start at the last entry *)
  cle : bool array;
  cbound : float array;
}

let compile p objective_terms garr =
  let ngroups = Array.length garr in
  let lins = ref [] and nf = ref 0 in
  let factor l =
    lins := l :: !lins;
    incr nf;
    !nf - 1
  in
  let term = function
    | Lin l -> (factor l, -1)
    | Prod (a, b) ->
        let f1 = factor a in
        (f1, factor b)
  in
  let per_constr = List.map (fun c -> List.map term c.terms) p.constraints in
  let terms =
    Array.of_list (List.concat per_constr @ List.map term objective_terms)
  in
  let lins = Array.of_list (List.rev !lins) in
  let nf = Array.length lins in
  let smin = Array.make_matrix (ngroups + 1) nf 0.0 in
  let smax = Array.make_matrix (ngroups + 1) nf 0.0 in
  let inc = Array.make p.nvars [] in
  for f = nf - 1 downto 0 do
    let l = lins.(f) in
    for gi = ngroups - 1 downto 0 do
      let contribs = 0.0 :: List.map (lin_coeff l) garr.(gi) in
      smin.(gi).(f) <- smin.(gi + 1).(f) +. List.fold_left min infinity contribs;
      smax.(gi).(f) <-
        smax.(gi + 1).(f) +. List.fold_left max neg_infinity contribs
    done;
    List.iter
      (fun j ->
        let c = lin_coeff l j in
        if c <> 0.0 then inc.(j) <- (f, c) :: inc.(j))
      (List.sort_uniq compare (List.map fst l.coeffs))
  done;
  let cstart = Array.make (List.length p.constraints + 1) 0 in
  List.iteri
    (fun k ts -> cstart.(k + 1) <- cstart.(k) + List.length ts)
    per_constr;
  {
    init = Array.map (fun (l : lin) -> l.const) lins;
    smin;
    smax;
    inc_f = Array.map (fun fs -> Array.of_list (List.map fst fs)) inc;
    inc_c = Array.map (fun fs -> Array.of_list (List.map snd fs)) inc;
    tf1 = Array.map fst terms;
    tf2 = Array.map snd terms;
    cstart;
    cle = Array.of_list (List.map (fun c -> c.rel = Le) p.constraints);
    cbound = Array.of_list (List.map (fun c -> c.bound) p.constraints);
  }

(* Select variable [j]: [v +. c] on each factor it moves, as the
   list-based search added [sign *. c]; [unapply] subtracts, which IEEE
   754 defines as adding the negation. *)
let apply cp values j =
  let fs = cp.inc_f.(j) and cs = cp.inc_c.(j) in
  for k = 0 to Array.length fs - 1 do
    let f = fs.(k) in
    values.(f) <- values.(f) +. cs.(k)
  done

let unapply cp values j =
  let fs = cp.inc_f.(j) and cs = cp.inc_c.(j) in
  for k = 0 to Array.length fs - 1 do
    let f = fs.(k) in
    values.(f) <- values.(f) -. cs.(k)
  done

(* Can every constraint still hold for some completion of the groups at
   [depth..]?  A [Le] constraint needs its interval's low end, a [Ge]
   one its high end. *)
let feasible_possible cp values depth =
  let lo = cp.smin.(depth) and hi = cp.smax.(depth) in
  let ncons = Array.length cp.cbound in
  let ok = ref true and k = ref 0 in
  while !ok && !k < ncons do
    let le = cp.cle.(!k) in
    let acc = ref 0.0 in
    for t = cp.cstart.(!k) to cp.cstart.(!k + 1) - 1 do
      let f1 = cp.tf1.(t) and f2 = cp.tf2.(t) in
      let v1 = values.(f1) in
      if f2 < 0 then acc := !acc +. v1 +. if le then lo.(f1) else hi.(f1)
      else begin
        let v2 = values.(f2) in
        let a1 = v1 +. lo.(f1) and b1 = v1 +. hi.(f1) in
        let a2 = v2 +. lo.(f2) and b2 = v2 +. hi.(f2) in
        acc :=
          !acc
          +.
          if le then interval_min_product a1 b1 a2 b2
          else interval_max_product a1 b1 a2 b2
      end
    done;
    ok :=
      if le then !acc <= cp.cbound.(!k) +. 1e-9
      else !acc >= cp.cbound.(!k) -. 1e-9;
    incr k
  done;
  !ok

(* Lower bound on the objective terms over all completions of the
   groups at [depth..]: the same interval arithmetic as constraint
   propagation, so the prune stays admissible. *)
let[@inline] oterm_lb cp values depth =
  let lo = cp.smin.(depth) and hi = cp.smax.(depth) in
  let acc = ref 0.0 in
  for t = cp.cstart.(Array.length cp.cbound) to Array.length cp.tf1 - 1 do
    let f1 = cp.tf1.(t) and f2 = cp.tf2.(t) in
    let v1 = values.(f1) in
    if f2 < 0 then acc := !acc +. v1 +. lo.(f1)
    else begin
      let v2 = values.(f2) in
      acc :=
        !acc
        +. interval_min_product (v1 +. lo.(f1)) (v1 +. hi.(f1))
             (v2 +. lo.(f2)) (v2 +. hi.(f2))
    end
  done;
  !acc

(* Per-task search state.  Every subtree task owns a private copy of
   the assignment and the factor values (they are mutated in place
   along the DFS), plus local statistics that are folded into the
   shared totals when the task finishes. *)
type state = {
  x : bool array;
  values : float array;  (* each factor's partial value *)
  objs : float array;  (* separable objective of the path, per depth *)
  mutable snodes : int;
  mutable sflushed : int; (* nodes already reported to the shared total *)
  mutable spruned_bound : int;
  mutable spruned_validity : int;
  mutable sincumbents : int;
}

(* Search statistics land in the metrics registry (one flush per solve,
   so the per-node cost of accounting is a plain increment); incumbent
   improvements additionally become instant trace events so a Perfetto
   timeline shows when the search last made progress. *)
let m_solves = Obs.Metrics.Counter.v "binlp.solves" ~help:"solver invocations"

let m_nodes =
  Obs.Metrics.Counter.v "binlp.nodes" ~help:"branch-and-bound nodes explored"

let m_pruned_bound =
  Obs.Metrics.Counter.v "binlp.pruned_bound"
    ~help:"subtrees cut by the objective bound"

let m_pruned_validity =
  Obs.Metrics.Counter.v "binlp.pruned_validity"
    ~help:"subtrees cut by constraint interval propagation"

let m_incumbents =
  Obs.Metrics.Counter.v "binlp.incumbents" ~help:"incumbent improvements"

let m_tasks =
  Obs.Metrics.Counter.v "binlp.tasks" ~help:"subtree tasks explored"

exception Cancelled

let validate_terms p terms =
  List.iteri
    (fun k ->
      check_term p.nvars ~range_msg:"Binlp: objective term index out of range"
        ~where:(Printf.sprintf "objective term %d" k))
    terms

(* The canonical leaf objective: the separable part summed in index
   order plus the extra terms in declaration order — the same
   summation everywhere, so equal optima compare bit-exactly. *)
let leaf_objective objective objective_terms x =
  match objective_terms with
  | [] -> canonical_objective objective x
  | ts ->
      canonical_objective objective x
      +. List.fold_left (fun acc t -> acc +. eval_term x t) 0.0 ts

let solve ?(node_limit = 20_000_000) ?(runner = inline_runner)
    ?(objective_terms = []) p =
  Obs.Span.with_span ~cat:"optim" "binlp.solve" @@ fun span ->
  validate_terms p objective_terms;
  let groups = effective_groups p in
  let ngroups = List.length groups in
  let garr = Array.of_list groups in
  (* Order groups by their best (most negative) objective option so the
     DFS reaches good incumbents early; ties broken by smallest member
     index so the order — and hence the frontier split — is fully
     deterministic. *)
  let gmin_obj g = List.fold_left (fun acc j -> min acc p.objective.(j)) 0.0 g in
  let gkey g = (gmin_obj g, List.fold_left min max_int g) in
  Array.sort (fun a b -> compare (gkey a) (gkey b)) garr;
  let gmin = Array.map gmin_obj garr in
  let suffix_obj = Array.make (ngroups + 1) 0.0 in
  for i = ngroups - 1 downto 0 do
    suffix_obj.(i) <- suffix_obj.(i + 1) +. gmin.(i)
  done;
  (* Branch order inside a group — improving options cheapest-first,
     then "none", then the rest — computed once per solve instead of
     sorting (and allocating) at every node of the hot DFS loop. *)
  let opt_cmp a b =
    let c = compare p.objective.(a) p.objective.(b) in
    if c <> 0 then c else compare a b
  in
  let part sel =
    Array.map
      (fun g ->
        Array.of_list (List.sort opt_cmp (List.filter sel g)))
      garr
  in
  let neg_opts = part (fun j -> p.objective.(j) < 0.0) in
  let rest_opts = part (fun j -> p.objective.(j) >= 0.0) in
  let cp = compile p objective_terms garr in
  let no_oterms = objective_terms = [] in
  let make_state () =
    {
      x = Array.make p.nvars false;
      values = Array.copy cp.init;
      objs = Array.make (ngroups + 1) 0.0;
      snodes = 0;
      sflushed = 0;
      spruned_bound = 0;
      spruned_validity = 0;
      sincumbents = 0;
    }
  in
  (* Shared solver state: the atomic incumbent (CAS below), a cached
     copy of its objective for the per-node bound read, the cooperative
     cancellation flag, and the node/prune totals the tasks fold into. *)
  let incumbent : solution option Atomic.t = Atomic.make None in
  let best_obj = Atomic.make infinity in
  let cancelled = Atomic.make false in
  let limit_hit = Atomic.make false in
  let total_nodes = Atomic.make 0 in
  let total_pruned_bound = Atomic.make 0 in
  let total_pruned_validity = Atomic.make 0 in
  let total_incumbents = Atomic.make 0 in
  let parallel = runner.workers >= 2 && ngroups >= 2 in
  (* Node accounting is chunked under parallel execution (the limit is
     then approximate by at most workers * chunk nodes).  The inline
     path has exactly one task, so its node count IS the total: the
     limit check stays exact without touching an atomic in the hot
     loop. *)
  let chunk = 128 in
  let note_node st =
    st.snodes <- st.snodes + 1;
    if parallel then begin
      if st.snodes - st.sflushed = chunk then begin
        st.sflushed <- st.snodes;
        if Atomic.fetch_and_add total_nodes chunk + chunk > node_limit then begin
          Atomic.set limit_hit true;
          Atomic.set cancelled true
        end
      end;
      if Atomic.get cancelled then raise Cancelled
    end
    else if st.snodes > node_limit then begin
      Atomic.set limit_hit true;
      raise Cancelled
    end
  in
  let offer st =
    let obj = leaf_objective p.objective objective_terms st.x in
    let cand = { x = Array.copy st.x; objective = obj } in
    let rec attempt () =
      let cur = Atomic.get incumbent in
      let improves =
        match cur with None -> true | Some b -> better_solution cand b
      in
      if improves then
        if Atomic.compare_and_set incumbent cur (Some cand) then begin
          (* A racing reader may briefly see the previous (never
             smaller) objective: that only weakens pruning, it cannot
             cut an optimum. *)
          Atomic.set best_obj obj;
          st.sincumbents <- st.sincumbents + 1;
          Obs.Span.event ~cat:"optim" "binlp.incumbent"
            ~attrs:
              [
                ("objective", Obs.Json.Float obj);
                ("node", Obs.Json.Int st.snodes);
              ];
          Obs.Span.counter ~cat:"optim" "binlp.objective"
            [ ("objective", obj) ];
          if Obs.Journal.enabled () then
            Obs.Journal.record ~kind:"binlp.incumbent"
              [
                ("node", Obs.Json.Int st.snodes);
                ("objective", Obs.Json.Float obj);
                ( "bound",
                  match cur with
                  | Some b when Float.is_finite b.objective ->
                      Obs.Json.Float b.objective
                  | Some _ | None -> Obs.Json.Null );
              ]
        end
        else attempt ()
    in
    attempt ()
  in
  let rec dfs st depth =
    note_node st;
    let obj = st.objs.(depth) in
    (* Strictly-worse prune only: a subtree whose bound ties the
       incumbent may still hold an equal-objective, lexicographically
       smaller assignment, and the tie-break must find it. *)
    let lb =
      if no_oterms then obj +. suffix_obj.(depth)
      else obj +. suffix_obj.(depth) +. oterm_lb cp st.values depth
    in
    if lb > Atomic.get best_obj +. 1e-12 then
      st.spruned_bound <- st.spruned_bound + 1
    else if not (feasible_possible cp st.values depth) then
      st.spruned_validity <- st.spruned_validity + 1
    else if depth = ngroups then begin
      if List.for_all (check_constr st.x) p.constraints then offer st
    end
    else begin
      let neg = neg_opts.(depth) in
      for k = 0 to Array.length neg - 1 do
        try_member st depth neg.(k)
      done;
      st.objs.(depth + 1) <- obj;
      dfs st (depth + 1);
      let rest = rest_opts.(depth) in
      for k = 0 to Array.length rest - 1 do
        try_member st depth rest.(k)
      done
    end
  and try_member st depth j =
    st.x.(j) <- true;
    apply cp st.values j;
    st.objs.(depth + 1) <- st.objs.(depth) +. p.objective.(j);
    dfs st (depth + 1);
    unapply cp st.values j;
    st.x.(j) <- false
  in
  (* Frontier split: peel off the shallowest prefix of groups whose
     option cross-product yields enough independent subtree tasks to
     feed the workers (capped at depth 3).  Each task replays its
     prefix into a private state and explores the remaining groups,
     pruning against the shared incumbent — so late tasks inherit the
     cuts of whichever task improved it first. *)
  let frontier_depth =
    if not parallel then 0
    else begin
      let d = ref 0 and t = ref 1 in
      while !d < ngroups - 1 && !d < 3 && !t < 8 * runner.workers do
        t :=
          !t
          * (Array.length neg_opts.(!d) + Array.length rest_opts.(!d) + 1);
        incr d
      done;
      !d
    end
  in
  let prefixes =
    if frontier_depth = 0 then [ [] ]
    else begin
      (* -1 encodes "no option of this group"; canonical branch order
         (improving, none, rest) so task 0 is the sequential DFS's
         first dive. *)
      let acc = ref [] in
      let rec enum d prefix =
        if d = frontier_depth then acc := List.rev prefix :: !acc
        else begin
          Array.iter (fun j -> enum (d + 1) (j :: prefix)) neg_opts.(d);
          enum (d + 1) (-1 :: prefix);
          Array.iter (fun j -> enum (d + 1) (j :: prefix)) rest_opts.(d)
        end
      in
      enum 0 [];
      List.rev !acc
    end
  in
  let commit st =
    ignore (Atomic.fetch_and_add total_nodes (st.snodes - st.sflushed));
    ignore (Atomic.fetch_and_add total_pruned_bound st.spruned_bound);
    ignore (Atomic.fetch_and_add total_pruned_validity st.spruned_validity);
    ignore (Atomic.fetch_and_add total_incumbents st.sincumbents)
  in
  let run_prefix prefix () =
    let st = make_state () in
    let obj =
      List.fold_left
        (fun acc j ->
          if j < 0 then acc
          else begin
            st.x.(j) <- true;
            apply cp st.values j;
            acc +. p.objective.(j)
          end)
        0.0 prefix
    in
    st.objs.(frontier_depth) <- obj;
    (try dfs st frontier_depth with Cancelled -> ());
    commit st
  in
  let status () =
    if Atomic.get limit_hit then Node_limit_reached else Optimal
  in
  let flush () =
    let nodes = Atomic.get total_nodes in
    let pruned_bound = Atomic.get total_pruned_bound in
    let pruned_validity = Atomic.get total_pruned_validity in
    let incumbents = Atomic.get total_incumbents in
    Obs.Metrics.Counter.incr m_solves;
    Obs.Metrics.Counter.incr ~by:nodes m_nodes;
    Obs.Metrics.Counter.incr ~by:pruned_bound m_pruned_bound;
    Obs.Metrics.Counter.incr ~by:pruned_validity m_pruned_validity;
    Obs.Metrics.Counter.incr ~by:incumbents m_incumbents;
    Obs.Metrics.Counter.incr ~by:(List.length prefixes) m_tasks;
    Obs.Span.add_attr span "nodes" (Obs.Json.Int nodes);
    Obs.Span.add_attr span "pruned_bound" (Obs.Json.Int pruned_bound);
    Obs.Span.add_attr span "pruned_validity" (Obs.Json.Int pruned_validity);
    Obs.Span.add_attr span "incumbents" (Obs.Json.Int incumbents);
    Obs.Span.add_attr span "workers" (Obs.Json.Int runner.workers);
    Obs.Span.add_attr span "tasks" (Obs.Json.Int (List.length prefixes));
    if Obs.Journal.enabled () then
      Obs.Journal.record ~kind:"binlp.solve"
        [
          ("nodes", Obs.Json.Int nodes);
          ("pruned_bound", Obs.Json.Int pruned_bound);
          ("pruned_validity", Obs.Json.Int pruned_validity);
          ("incumbents", Obs.Json.Int incumbents);
          ( "objective",
            match Atomic.get incumbent with
            | Some s -> Obs.Json.Float s.objective
            | None -> Obs.Json.Null );
          ("workers", Obs.Json.Int runner.workers);
          ("tasks", Obs.Json.Int (List.length prefixes));
          ( "status",
            Obs.Json.String
              (match status () with
              | Optimal -> "optimal"
              | Node_limit_reached -> "node_limit_reached") );
        ];
    match Atomic.get incumbent with
    | Some s -> Obs.Span.add_attr span "objective" (Obs.Json.Float s.objective)
    | None -> ()
  in
  Fun.protect ~finally:flush (fun () ->
      runner.run_batch (List.map run_prefix prefixes));
  {
    best = Atomic.get incumbent;
    status = status ();
    nodes = Atomic.get total_nodes;
  }

let brute_force ?(objective_terms = []) p =
  validate_terms p objective_terms;
  let groups = effective_groups p in
  let x = Array.make p.nvars false in
  let best = ref None in
  let rec go gs =
    match gs with
    | [] ->
        if List.for_all (check_constr x) p.constraints then begin
          let cand =
            {
              x = Array.copy x;
              objective = leaf_objective p.objective objective_terms x;
            }
          in
          match !best with
          | Some b when not (better_solution cand b) -> ()
          | Some _ | None -> best := Some cand
        end
    | g :: rest ->
        go rest;
        List.iter
          (fun j ->
            x.(j) <- true;
            go rest;
            x.(j) <- false)
          g
  in
  go groups;
  !best
