"""Coverage-guided greybox fuzzing engine over in-process guard-tree targets.

The engine schedules frontier branches (visited guards with an unexercised
edge) by their estimated probability of a branch-distance decrease and flips
them with a local-search plus root-finding mutator.
"""
