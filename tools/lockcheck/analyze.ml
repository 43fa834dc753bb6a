(* The lock-discipline analyzer core.

   Two passes over every parsed compilation unit:

   Pass A (extraction): a flat traversal of each top-level binding
   collecting a per-function summary — locks acquired anywhere in the
   body, whether the body can block (Env IO, sleeps, joins,
   Condition.wait), outgoing calls, and the declared annotation
   contracts ([@@requires_lock l], [@@excludes_locks ...],
   [@@drops_lock l]). A call-graph fixpoint then propagates transitive
   acquisitions and blockingness through resolved calls.

   Pass C (checking): an intraprocedural walk tracking the set of held
   locks along control flow — Mutex.lock/unlock/protect, Fun.protect
   (body before ~finally), Mutex.try_lock in an if condition,
   Shared_lock shared/exclusive ops, and the spec's with-style
   wrappers. Branches are joined by intersecting their exit held-sets.
   Each acquisition is checked against the spec's partial order (LC001)
   and reentrancy (LC008); blocking calls against the no-block set
   (LC002); call sites against callee contracts (LC003/LC004);
   Condition.wait against its declared mutex (LC007); Atomic/Domain use
   against the module allowlist (LC005); and bare Mutex.lock not
   immediately covered by Fun.protect is flagged (LC006) unless the
   function is on the spec's hand-over-hand allowlist.

   Lambdas are analyzed inline where they appear, under the held-set of
   that program point (plus the wrapper's lock when passed to a
   with-style wrapper), which is how closure bodies like the cache's
   fill protocol get checked under the right lock. *)

open Parsetree
module SS = Set.Make (String)

type excludes = NoExcl | ExclAll | ExclSome of string list
type mode = Plain | Shared | Exclusive

type fenv = {
  f_file : string;
  f_module : string; (* capitalized basename: summary-key namespace *)
  mutable f_aliases : (string * string) list; (* module X = Y *)
  mutable f_opens : string list;
}

type summary = {
  s_key : string;
  mutable s_acquires : SS.t; (* transitive after fixpoint, minus drops *)
  mutable s_blocking : bool;
  s_requires : string list;
  s_excludes : excludes;
  s_drops : SS.t; (* locks this function may release internally *)
  mutable s_calls : (string option * string) list; (* module hint, name *)
  s_fenv : fenv;
}

type genv = {
  spec : Lockspec.t;
  summaries : (string, summary) Hashtbl.t;
  includes : (string, string) Hashtbl.t; (* module -> included modules *)
  mutable diags : Diag.t list;
}

type wstate = {
  genv : genv;
  fenv : fenv;
  fn_key : string;
  mutable held : (string * mode) list; (* innermost first *)
}

(* ---------- small utilities ---------- *)

let rec list_last = function [] -> "" | [ x ] -> x | _ :: tl -> list_last tl

let last_two parts =
  match List.rev parts with
  | b :: a :: _ -> Some (a ^ "." ^ b)
  | _ -> None

let rec unwrap e =
  match e.pexp_desc with
  | Pexp_open (_, e') | Pexp_constraint (e', _) -> unwrap e'
  | _ -> e

let head_parts f =
  match (unwrap f).pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.flatten txt)
  | _ -> None

let is_lambda e =
  match (unwrap e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | _ -> false

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let add_diag genv fenv loc code msg =
  genv.diags <-
    { Diag.file = fenv.f_file; line = line_of loc; code; msg } :: genv.diags

let canon fenv m =
  let rec go m n =
    if n = 0 then m
    else
      match List.assoc_opt m fenv.f_aliases with
      | Some t when t <> m -> go t (n - 1)
      | _ -> m
  in
  go m 5

(* ---------- lock / wrapper / annotation resolution ---------- *)

let lock_matches fenv (l : Lockspec.lock_decl) ~field ~var =
  (l.l_modules = [] || List.mem fenv.f_module l.l_modules)
  && ((match field with Some f -> List.mem f l.l_fields | None -> false)
     || match var with Some v -> List.mem v l.l_vars | None -> false)

let lock_of_expr genv fenv e =
  let field, var =
    match (unwrap e).pexp_desc with
    | Pexp_field (_, lid) -> (Some (Longident.last lid.txt), None)
    | Pexp_ident { txt; _ } -> (
        match Longident.flatten txt with [ v ] -> (None, Some v) | _ -> (None, None))
    | _ -> (None, None)
  in
  if field = None && var = None then None
  else
    List.find_opt (fun l -> lock_matches fenv l ~field ~var) genv.spec.locks
    |> Option.map (fun (l : Lockspec.lock_decl) -> l.l_name)

let find_wrapper genv fenv parts =
  let last = list_last parts in
  let hint =
    match List.rev parts with _ :: m :: _ -> Some (canon fenv m) | _ -> None
  in
  List.find_opt
    (fun (w : Lockspec.wrapper) ->
      w.w_name = last
      &&
      match (w.w_module, hint) with
      | None, _ -> true
      | Some wm, Some h -> wm = h
      | Some wm, None -> wm = fenv.f_module)
    genv.spec.wrappers

let wrapper_lock genv fenv (w : Lockspec.wrapper) args =
  match w.w_lock with
  | Some l -> Some l
  | None -> (
      match w.w_lock_arg with
      | Some i -> (
          match List.nth_opt args (i - 1) with
          | Some (_, e) -> lock_of_expr genv fenv e
          | None -> None)
      | None -> None)

let payload_idents = function
  | PStr items ->
      List.concat_map
        (fun it ->
          match it.pstr_desc with
          | Pstr_eval (e, _) ->
              let rec ids e =
                match e.pexp_desc with
                | Pexp_ident { txt; _ } -> [ Longident.last txt ]
                | Pexp_apply (f, args) ->
                    ids f @ List.concat_map (fun (_, a) -> ids a) args
                | Pexp_tuple es -> List.concat_map ids es
                | Pexp_sequence (a, b) -> ids a @ ids b
                | _ -> []
              in
              ids e
          | _ -> [])
        items
  | _ -> []

let binding_name vb =
  let rec pat p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p', _) -> pat p'
    | _ -> None
  in
  pat vb.pvb_pat

let rec module_structure me =
  match me.pmod_desc with
  | Pmod_structure s -> Some s
  | Pmod_functor (_, me') | Pmod_constraint (me', _) -> module_structure me'
  | _ -> None

(* module SL = Clsm_skiplist.Skiplist.Make (K)  =>  SL -> Skiplist
   module Env = Clsm_env.Env                     =>  Env -> Env (last component) *)
let rec alias_target me =
  match me.pmod_desc with
  | Pmod_ident lid -> Some (Longident.last lid.txt)
  | Pmod_constraint (me', _) -> alias_target me'
  | Pmod_apply (f, _) -> (
      match f.pmod_desc with
      | Pmod_ident lid -> (
          match List.rev (Longident.flatten lid.txt) with
          | _functor :: owner :: _ -> Some owner
          | _ -> None)
      | _ -> None)
  | _ -> None

(* ---------- pass A: summary extraction ---------- *)

let validate_lock_names genv fenv (attr : attribute) names =
  List.filter
    (fun n ->
      if Lockspec.find_lock_decl genv.spec n = None then begin
        add_diag genv fenv attr.attr_loc "LC009"
          (Printf.sprintf "annotation [@%s] names unknown lock %s"
             attr.attr_name.txt n);
        false
      end
      else true)
    names

let extract_expr genv fenv sum e0 =
  let spec = genv.spec in
  let add_lock = function
    | Some l -> sum.s_acquires <- SS.add l sum.s_acquires
    | None -> ()
  in
  let first_arg_lock args =
    match args with (_, m) :: _ -> lock_of_expr genv fenv m | [] -> None
  in
  let rec it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun _ e ->
          (match e.pexp_desc with
          | Pexp_apply (f, args) -> (
              match head_parts f with
              | Some parts -> (
                  let two = last_two parts in
                  let dotted = String.concat "." parts in
                  match two with
                  | Some ("Mutex.lock" | "Mutex.try_lock" | "Mutex.protect") ->
                      add_lock (first_arg_lock args)
                  | Some ("Shared_lock.lock_shared" | "Shared_lock.lock_exclusive")
                    ->
                      add_lock (first_arg_lock args)
                  | Some "Condition.wait" -> sum.s_blocking <- true
                  | _ ->
                      if
                        SS.mem dotted spec.blocking_calls
                        || match two with
                           | Some t -> SS.mem t spec.blocking_calls
                           | None -> false
                      then sum.s_blocking <- true
                      else (
                        match find_wrapper genv fenv parts with
                        | Some w -> add_lock (wrapper_lock genv fenv w args)
                        | None ->
                            let hint =
                              match List.rev parts with
                              | [ _ ] -> None
                              | _ :: m :: _ -> Some m
                              | [] -> None
                            in
                            (match parts with
                            | ("Atomic" | "Domain" | "Mutex" | "Condition"
                              | "Fun" | "Unix" | "Sys" | "Printf" | "Format")
                              :: _ :: _ ->
                                ()
                            | _ ->
                                sum.s_calls <-
                                  (hint, list_last parts) :: sum.s_calls)))
              | None -> (
                  match (unwrap f).pexp_desc with
                  | Pexp_field (_, lid)
                    when SS.mem (Longident.last lid.txt) spec.blocking_fields ->
                      sum.s_blocking <- true
                  | _ -> ()))
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e0

let extract_binding genv fenv vb =
  match binding_name vb with
  | None -> ()
  | Some name ->
      let key = fenv.f_module ^ "." ^ name in
      let requires = ref [] and drops = ref [] and excludes = ref NoExcl in
      List.iter
        (fun (a : attribute) ->
          let ids () =
            validate_lock_names genv fenv a (payload_idents a.attr_payload)
          in
          match a.attr_name.txt with
          | "requires_lock" -> requires := !requires @ ids ()
          | "drops_lock" -> drops := !drops @ ids ()
          | "excludes_locks" -> (
              match payload_idents a.attr_payload with
              | [] -> excludes := ExclAll
              | _ -> excludes := ExclSome (ids ()))
          | _ -> ())
        vb.pvb_attributes;
      let sum =
        {
          s_key = key;
          s_acquires = SS.empty;
          s_blocking = false;
          s_requires = !requires;
          s_excludes = !excludes;
          s_drops = SS.of_list !drops;
          s_calls = [];
          s_fenv = fenv;
        }
      in
      extract_expr genv fenv sum vb.pvb_expr;
      Hashtbl.replace genv.summaries key sum

let rec extract_str genv fenv str =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.iter (extract_binding genv fenv) vbs
      | Pstr_module mb ->
          (match mb.pmb_name.txt with
          | Some name -> (
              match alias_target mb.pmb_expr with
              | Some tgt when tgt <> name ->
                  fenv.f_aliases <- (name, tgt) :: fenv.f_aliases
              | _ -> ())
          | None -> ());
          (match module_structure mb.pmb_expr with
          | Some s -> extract_str genv fenv s
          | None -> ())
      | Pstr_recmodule mbs ->
          List.iter
            (fun mb ->
              match module_structure mb.pmb_expr with
              | Some s -> extract_str genv fenv s
              | None -> ())
            mbs
      | Pstr_open od -> (
          match od.popen_expr.pmod_desc with
          | Pmod_ident lid ->
              fenv.f_opens <- Longident.last lid.txt :: fenv.f_opens
          | _ -> ())
      | Pstr_include inc -> (
          match (module_structure inc.pincl_mod, inc.pincl_mod.pmod_desc) with
          | Some s, _ -> extract_str genv fenv s
          | None, Pmod_ident lid ->
              Hashtbl.add genv.includes fenv.f_module
                (canon fenv (Longident.last lid.txt))
          | None, _ -> ())
      | _ -> ())
    str

(* ---------- call resolution + fixpoint ---------- *)

(* [M.name], or else the [name] of a module [M] includes ([db.ml] is
   [include Store], so [Db.put] is [Store.put]). *)
let rec find_summary genv m name ~depth =
  match Hashtbl.find_opt genv.summaries (m ^ "." ^ name) with
  | Some s -> Some s
  | None when depth > 0 ->
      List.find_map
        (fun inc -> find_summary genv inc name ~depth:(depth - 1))
        (Hashtbl.find_all genv.includes m)
  | None -> None

let resolve_call genv fenv (hint, name) =
  let find m = find_summary genv m name ~depth:5 in
  match hint with
  | Some h -> find (canon fenv h)
  | None -> (
      match find fenv.f_module with
      | Some s -> Some s
      | None -> List.find_map (fun o -> find (canon fenv o)) fenv.f_opens)

let fixpoint genv =
  let resolved =
    Hashtbl.fold
      (fun _ sum acc ->
        (sum, List.filter_map (resolve_call genv sum.s_fenv) sum.s_calls) :: acc)
      genv.summaries []
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (sum, callees) ->
        List.iter
          (fun c ->
            let add =
              SS.diff (SS.diff c.s_acquires c.s_drops) sum.s_acquires
            in
            if not (SS.is_empty add) then begin
              sum.s_acquires <- SS.union sum.s_acquires add;
              changed := true
            end;
            if c.s_blocking && not sum.s_blocking then begin
              sum.s_blocking <- true;
              changed := true
            end)
          callees)
      resolved
  done

(* ---------- pass C: intraprocedural checking ---------- *)

let held_names st = List.map fst st.held

let acquire st loc lock _mode =
  if List.mem_assoc lock st.held then
    add_diag st.genv st.fenv loc "LC008"
      (Printf.sprintf "re-acquisition of %s, already held" lock)
  else begin
    List.iter
      (fun (h, _) ->
        if not (Lockspec.order_allows st.genv.spec h lock) then
          add_diag st.genv st.fenv loc "LC001"
            (Printf.sprintf
               "acquires %s while holding %s: not permitted by the declared \
                lock order"
               lock h))
      st.held;
    st.held <- (lock, _mode) :: st.held
  end

let release st lock =
  let rec rm = function
    | [] -> []
    | (n, _) :: tl when n = lock -> tl
    | h :: tl -> h :: rm tl
  in
  st.held <- rm st.held

let blocking_check st loc what =
  List.iter
    (fun (h, _) ->
      if SS.mem h st.genv.spec.no_block then
        add_diag st.genv st.fenv loc "LC002"
          (Printf.sprintf "%s may block while holding %s" what h))
    st.held

let call_check st loc name (c : summary) =
  let held = held_names st in
  List.iter
    (fun r ->
      if not (List.mem r held) then
        add_diag st.genv st.fenv loc "LC003"
          (Printf.sprintf "call to %s requires lock %s, which is not held"
             name r))
    c.s_requires;
  (match c.s_excludes with
  | NoExcl -> ()
  | ExclAll ->
      if held <> [] then
        add_diag st.genv st.fenv loc "LC004"
          (Printf.sprintf
             "call to %s, which must be entered with no locks held (holding \
              %s)"
             name
             (String.concat ", " held))
  | ExclSome ls ->
      List.iter
        (fun l ->
          if List.mem l held then
            add_diag st.genv st.fenv loc "LC004"
              (Printf.sprintf "call to %s while holding excluded lock %s" name
                 l))
        ls);
  let held' = List.filter (fun (n, _) -> not (SS.mem n c.s_drops)) st.held in
  let acqs = SS.diff c.s_acquires c.s_drops in
  SS.iter
    (fun a ->
      if List.mem_assoc a held' then
        add_diag st.genv st.fenv loc "LC008"
          (Printf.sprintf "call to %s (re)acquires %s, already held" name a)
      else
        List.iter
          (fun (h, _) ->
            if not (Lockspec.order_allows st.genv.spec h a) then
              add_diag st.genv st.fenv loc "LC001"
                (Printf.sprintf
                   "call to %s acquires %s while holding %s: not permitted by \
                    the declared lock order"
                   name a h))
          held')
    acqs;
  if c.s_blocking then
    List.iter
      (fun (h, _) ->
        if SS.mem h st.genv.spec.no_block then
          add_diag st.genv st.fenv loc "LC002"
            (Printf.sprintf "call to %s may block while holding %s" name h))
      held'

let intersect a b = List.filter (fun (n, _) -> List.mem_assoc n b) a

(* Run each branch from the same entry held-set; join by intersection. *)
let with_branches st branches =
  let entry = st.held in
  let exits =
    List.map
      (fun f ->
        st.held <- entry;
        f ();
        st.held)
      branches
  in
  st.held <-
    (match exits with
    | [] -> entry
    | e0 :: rest -> List.fold_left intersect e0 rest)

let rec walk st e =
  let spec = st.genv.spec in
  match e.pexp_desc with
  | Pexp_sequence (e1, e2) ->
      (match mutex_lock_parts st e1 with
      | Some (loc, lockarg) ->
          do_mutex_lock st loc lockarg ~bare_ok:(is_fun_protect e2)
      | None -> walk st e1);
      walk st e2
  | Pexp_apply (f, args) -> handle_apply st e f args
  | Pexp_ifthenelse (cond, then_, else_) ->
      let trylock =
        match (unwrap cond).pexp_desc with
        | Pexp_apply (cf, [ (_, m) ])
          when head_parts cf
               |> Option.fold ~none:false ~some:(fun p ->
                      last_two p = Some "Mutex.try_lock") ->
            lock_of_expr st.genv st.fenv m
        | _ -> None
      in
      if trylock = None then walk st cond;
      with_branches st
        [
          (fun () ->
            (match trylock with
            | Some l -> st.held <- (l, Plain) :: st.held
            | None -> ());
            walk st then_);
          (fun () -> match else_ with Some e' -> walk st e' | None -> ());
        ]
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      walk st scrut;
      with_branches st
        ((fun () -> ())
        :: List.map
             (fun c () ->
               (match c.pc_guard with Some g -> walk st g | None -> ());
               walk st c.pc_rhs)
             cases)
  | Pexp_while (cond, body) ->
      walk st cond;
      with_branches st [ (fun () -> walk st body); (fun () -> ()) ]
  | Pexp_for (_, lo, hi, _, body) ->
      walk st lo;
      walk st hi;
      with_branches st [ (fun () -> walk st body); (fun () -> ()) ]
  | Pexp_fun (_, default, _, body) ->
      (match default with Some d -> walk st d | None -> ());
      let entry = st.held in
      walk st body;
      st.held <- entry
  | Pexp_function cases ->
      let entry = st.held in
      List.iter
        (fun c ->
          st.held <- entry;
          (match c.pc_guard with Some g -> walk st g | None -> ());
          walk st c.pc_rhs)
        cases;
      st.held <- entry
  | Pexp_ident { txt; _ } -> (
      match Longident.flatten txt with
      | ("Atomic" | "Domain") :: _ :: _
        when not (SS.mem st.fenv.f_module spec.atomics_modules) ->
          add_diag st.genv st.fenv e.pexp_loc "LC005"
            (Printf.sprintf
               "%s used outside the atomics-allowlisted module set"
               (String.concat "." (Longident.flatten txt)))
      | _ -> ())
  | _ -> dflt st e

and dflt st e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ e' -> walk st e');
    }
  in
  Ast_iterator.default_iterator.expr it e

and mutex_lock_parts st e =
  match (unwrap e).pexp_desc with
  | Pexp_apply (f, [ (_, m) ])
    when head_parts f
         |> Option.fold ~none:false ~some:(fun p ->
                last_two p = Some "Mutex.lock") ->
      ignore st;
      Some (e.pexp_loc, m)
  | _ -> None

and is_fun_protect e =
  let is_protect e' =
    match (unwrap e').pexp_desc with
    | Pexp_apply (f, _) ->
        head_parts f
        |> Option.fold ~none:false ~some:(fun p ->
               last_two p = Some "Fun.protect")
    | _ -> false
  in
  match (unwrap e).pexp_desc with
  | Pexp_sequence (e1, _) -> is_protect e1
  | Pexp_let (_, vb :: _, _) -> is_protect vb.pvb_expr
  | _ -> is_protect e

and do_mutex_lock st loc lockarg ~bare_ok =
  walk st lockarg;
  if (not bare_ok) && not (SS.mem st.fn_key st.genv.spec.allow_bare) then
    add_diag st.genv st.fenv loc "LC006"
      "bare Mutex.lock: a raise before the matching unlock leaks the lock; \
       use Mutex.protect or follow immediately with Fun.protect";
  match lock_of_expr st.genv st.fenv lockarg with
  | Some l -> acquire st loc l Plain
  | None -> ()

(* Walk a wrapper invocation: non-lambda arguments first, then the body
   lambdas under the wrapper's lock. *)
and apply_wrapper st loc lock ~shared args =
  let lams, others = List.partition (fun (_, a) -> is_lambda a) args in
  List.iter (fun (_, a) -> walk st a) others;
  (match lock with
  | Some l -> acquire st loc l (if shared then Shared else Plain)
  | None -> ());
  List.iter (fun (_, a) -> walk st a) lams;
  match lock with Some l -> release st l | None -> ()

(* ~finally must be walked transparently (no held restore) so that an
   unlock inside it releases the lock in the caller's continuation. *)
and walk_transparent st e =
  match (unwrap e).pexp_desc with
  | Pexp_fun (_, _, _, body) -> walk_transparent st body
  | _ -> walk st e

and handle_apply st e f args =
  let spec = st.genv.spec in
  let loc = e.pexp_loc in
  let walk_args () = List.iter (fun (_, a) -> walk st a) args in
  match head_parts f with
  | None ->
      (match (unwrap f).pexp_desc with
      | Pexp_field (obj, lid) ->
          walk st obj;
          let field = Longident.last lid.txt in
          if SS.mem field spec.blocking_fields then
            blocking_check st loc (Printf.sprintf "Env IO call (.%s)" field)
      | _ -> walk st f);
      walk_args ()
  | Some parts -> (
      let two = last_two parts in
      let dotted = String.concat "." parts in
      match (parts, two) with
      | ("Atomic" | "Domain") :: _ :: _, _ ->
          if not (SS.mem st.fenv.f_module spec.atomics_modules) then
            add_diag st.genv st.fenv loc "LC005"
              (Printf.sprintf
                 "%s used outside the atomics-allowlisted module set" dotted);
          walk_args ()
      | _, Some "Mutex.lock" -> (
          match args with
          | [ (_, m) ] -> do_mutex_lock st loc m ~bare_ok:false
          | _ -> walk_args ())
      | _, Some "Mutex.unlock" -> (
          walk_args ();
          match args with
          | [ (_, m) ] -> (
              match lock_of_expr st.genv st.fenv m with
              | Some l -> release st l
              | None -> ())
          | _ -> ())
      | _, Some "Mutex.try_lock" ->
          (* outside an if-condition: treated as not acquiring *)
          walk_args ()
      | _, Some "Mutex.protect" -> (
          match args with
          | [ (_, m); (_, body) ] ->
              walk st m;
              apply_wrapper st loc
                (lock_of_expr st.genv st.fenv m)
                ~shared:false
                [ (Asttypes.Nolabel, body) ]
          | _ -> walk_args ())
      | _, Some "Fun.protect" ->
          let fin, rest =
            List.partition
              (fun (l, _) -> l = Asttypes.Labelled "finally")
              args
          in
          List.iter (fun (_, a) -> walk st a) rest;
          List.iter (fun (_, a) -> walk_transparent st a) fin
      | _, Some "Condition.wait" -> handle_wait st loc args
      | _, Some ("Condition.signal" | "Condition.broadcast") -> walk_args ()
      | _, Some "Shared_lock.lock_shared" -> (
          walk_args ();
          match args with
          | [ (_, m) ] -> (
              match lock_of_expr st.genv st.fenv m with
              | Some l -> acquire st loc l Shared
              | None -> ())
          | _ -> ())
      | _, Some "Shared_lock.lock_exclusive" -> (
          walk_args ();
          match args with
          | [ (_, m) ] -> (
              match lock_of_expr st.genv st.fenv m with
              | Some l -> acquire st loc l Exclusive
              | None -> ())
          | _ -> ())
      | _, Some ("Shared_lock.unlock_shared" | "Shared_lock.unlock_exclusive")
        -> (
          walk_args ();
          match args with
          | [ (_, m) ] -> (
              match lock_of_expr st.genv st.fenv m with
              | Some l -> release st l
              | None -> ())
          | _ -> ())
      | _ ->
          if
            SS.mem dotted spec.blocking_calls
            || match two with
               | Some t -> SS.mem t spec.blocking_calls
               | None -> false
          then begin
            blocking_check st loc (Printf.sprintf "blocking call %s" dotted);
            walk_args ()
          end
          else (
            match find_wrapper st.genv st.fenv parts with
            | Some w ->
                apply_wrapper st loc
                  (wrapper_lock st.genv st.fenv w args)
                  ~shared:w.w_shared args
            | None -> (
                walk_args ();
                let hint =
                  match List.rev parts with
                  | [ _ ] -> None
                  | _ :: m :: _ -> Some m
                  | [] -> None
                in
                match resolve_call st.genv st.fenv (hint, list_last parts) with
                | Some c when c.s_key <> st.fn_key ->
                    call_check st loc dotted c
                | _ -> ())))

and handle_wait st loc args =
  List.iter (fun (_, a) -> walk st a) args;
  match args with
  | [ (_, c); (_, m) ] -> (
      let cfield =
        match (unwrap c).pexp_desc with
        | Pexp_field (_, lid) -> Some (Longident.last lid.txt)
        | Pexp_ident { txt; _ } -> (
            match Longident.flatten txt with [ v ] -> Some v | _ -> None)
        | _ -> None
      in
      match lock_of_expr st.genv st.fenv m with
      | None ->
          add_diag st.genv st.fenv loc "LC007"
            "Condition.wait on a mutex not declared in the lock spec"
      | Some l ->
          if not (List.mem_assoc l st.held) then
            add_diag st.genv st.fenv loc "LC007"
              (Printf.sprintf "Condition.wait on %s, which is not held" l);
          (match
             List.find_opt
               (fun (cv : Lockspec.condvar) ->
                 Some cv.c_field = cfield
                 &&
                 match cv.c_module with
                 | None -> true
                 | Some m' -> m' = st.fenv.f_module)
               st.genv.spec.condvars
           with
          | None ->
              add_diag st.genv st.fenv loc "LC007"
                "Condition.wait on a condvar with no declared mutex \
                 association in the lock spec"
          | Some cv ->
              if cv.c_lock <> l then
                add_diag st.genv st.fenv loc "LC007"
                  (Printf.sprintf
                     "Condition.wait pairs condvar %s with foreign mutex %s \
                      (declared mutex: %s)"
                     cv.c_field l cv.c_lock));
          List.iter
            (fun (h, _) ->
              if h <> l then
                add_diag st.genv st.fenv loc "LC007"
                  (Printf.sprintf
                     "Condition.wait on %s while also holding %s" l h))
            st.held)
  | _ -> ()

let check_binding genv fenv vb =
  let key =
    match binding_name vb with
    | Some n -> fenv.f_module ^ "." ^ n
    | None -> fenv.f_module ^ "._toplevel"
  in
  let requires =
    match Hashtbl.find_opt genv.summaries key with
    | Some s -> s.s_requires
    | None -> []
  in
  let st =
    { genv; fenv; fn_key = key; held = List.map (fun r -> (r, Plain)) requires }
  in
  walk st vb.pvb_expr

let rec check_str genv fenv str =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.iter (check_binding genv fenv) vbs
      | Pstr_module mb -> (
          match module_structure mb.pmb_expr with
          | Some s -> check_str genv fenv s
          | None -> ())
      | Pstr_recmodule mbs ->
          List.iter
            (fun mb ->
              match module_structure mb.pmb_expr with
              | Some s -> check_str genv fenv s
              | None -> ())
            mbs
      | Pstr_include inc -> (
          match module_structure inc.pincl_mod with
          | Some s -> check_str genv fenv s
          | None -> ())
      | Pstr_eval (e, _) ->
          let st =
            {
              genv;
              fenv;
              fn_key = fenv.f_module ^ "._toplevel";
              held = [];
            }
          in
          walk st e
      | _ -> ())
    str

(* ---------- driver ---------- *)

let module_of_file file =
  String.capitalize_ascii Filename.(remove_extension (basename file))

let run spec units =
  let genv =
    {
      spec;
      summaries = Hashtbl.create 256;
      includes = Hashtbl.create 16;
      diags = [];
    }
  in
  let units =
    List.map
      (fun (file, str) ->
        let fenv =
          { f_file = file; f_module = module_of_file file; f_aliases = []; f_opens = [] }
        in
        (fenv, str))
      units
  in
  List.iter (fun (fenv, str) -> extract_str genv fenv str) units;
  fixpoint genv;
  List.iter (fun (fenv, str) -> check_str genv fenv str) units;
  List.sort_uniq
    (fun (a : Diag.t) b ->
      match Diag.compare a b with 0 -> String.compare a.msg b.msg | c -> c)
    genv.diags
