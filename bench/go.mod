module redreq/bench

go 1.22

require redreq v0.0.0

replace redreq => ../
