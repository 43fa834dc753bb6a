type file = Table_file.t Clsm_primitives.Refcounted.t
type t = { removed : int list; added : (int * file) list }

let empty = { removed = []; added = [] }
