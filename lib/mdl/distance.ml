let delta a b = List.length (Diff.script a b)
