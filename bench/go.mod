module cachecost/bench

go 1.22

require cachecost v0.0.0

replace cachecost => ../
