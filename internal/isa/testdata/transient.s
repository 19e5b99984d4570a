li a0, 36
li a1, 3
div a0, a0, a1
div a0, a0, a1
j trig
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
nop
trig:
beq a0, a1, win
ecall
win:
li t0, 0x8000000000002000
ld s0, 0(t0)
li t4, 0x1400
andi s1, s0, 1
slli s1, s1, 6
add t4, t4, s1
jr t4
li t4, 0x1400
andi s1, s0, 1
slli s1, s1, 6
add t4, t4, s1
jr t4
ecall
