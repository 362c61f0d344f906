let find name ~optimized =
  List.find_map
    (fun (n, raw, opt) ->
      if not (String.equal n name) then None
      else Some (Marshal.from_string (if optimized then opt else raw) 0 : Rats_peg.Grammar.t))
    Blobs.all
