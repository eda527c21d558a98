"""Discrete-event cluster simulator and learned scheduler for DAG workflows."""
