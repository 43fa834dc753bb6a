type file = Table_file.t Clsm_primitives.Refcounted.t

type t = {
  removed : int list;
  added : (int * file) list;
  quarantine_add : int list;
  quarantine_clear : int list;
}

let empty = { removed = []; added = []; quarantine_add = []; quarantine_clear = [] }
