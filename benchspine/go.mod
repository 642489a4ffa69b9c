module gluenail/benchspine

go 1.22

require gluenail v0.0.0

replace gluenail => ../
