"""python -m spdelab: the command-line front end without its console
script."""

from .cli import main

main()
