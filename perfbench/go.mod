module p4guard/perfbench

go 1.22

require p4guard v0.0.0

replace p4guard => ../
