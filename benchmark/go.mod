module securekeeper/benchmark

go 1.22

require securekeeper v0.0.0

replace securekeeper => ../
