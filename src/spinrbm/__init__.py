"""Spin (+/-1) restricted Boltzmann machines trained with zero-step
contrastive divergence, with a belief-generation negative phase.

The package imports nothing: each name comes from the module that defines
it (``spinrbm.data``, ``spinrbm.training``, ...).  So importing the package
loads no numpy, and the ``rbm`` command can set the BLAS thread count
before numpy first loads.
"""
