module nord/bench

go 1.23

require nord v0.0.0

replace nord => ../
