"""2D incompressible flow on a staggered grid, with classical and learned
pressure projection.

The package splits into field containers (``grids``), discrete operators
(``fdops``), transport and body forces (``advection``, ``forces``), pressure
solvers (``pressure``), the learned projection network and its training
(``convnet``, ``training``), binary formats (``formats``), the frame loop
(``sim``), procedural scene generation (``datagen``), evaluation utilities
(``evaluate``), and the command line front end (``cli``).
"""
