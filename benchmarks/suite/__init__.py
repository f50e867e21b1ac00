"""Layered pgFMU benchmark (see README.md).

A package only so that pytest gives ``test_harness`` a module name of its
own; the scripts are run directly and import their siblings by file name.
"""
